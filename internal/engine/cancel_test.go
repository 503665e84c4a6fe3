package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"s2rdf/internal/dict"
)

// TestCancelledExecSkipsOperators runs operators on an already-cancelled
// context and asserts they perform no partition work at all.
func TestCancelledExecSkipsOperators(t *testing.T) {
	follows, likes := g1VP()
	c := NewCluster(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := c.NewExecContext(ctx)

	if err := x.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	f := mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{Col: "s", As: "x"}, {Col: "o", As: "y"}}})
	if f.NumRows() != 0 {
		t.Errorf("cancelled Scan produced %d rows, want 0", f.NumRows())
	}
	l := mustScan(x, likes, ScanSpec{Projs: []ScanProjection{{Col: "s", As: "y"}, {Col: "o", As: "w"}}})
	j := x.JoinWith(f, l, StrategyShuffle)
	if j.NumRows() != 0 {
		t.Errorf("cancelled Join produced %d rows, want 0", j.NumRows())
	}
}

// TestExecWithoutContextNeverCancels pins the zero-cost path: NewExec
// handles have no done channel, Err is nil, and operators run fully.
func TestExecWithoutContextNeverCancels(t *testing.T) {
	follows, _ := g1VP()
	c := NewCluster(2)
	x := c.NewExec()
	if x.Err() != nil || x.Cancelled() {
		t.Fatal("context-free Exec reports cancellation")
	}
	rel := mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{Col: "s", As: "x"}}})
	if rel.NumRows() != follows.NumRows() {
		t.Errorf("rows = %d, want %d", rel.NumRows(), follows.NumRows())
	}
}

// TestCancelMidJoinReturnsPromptly cancels a cross join over millions of
// output rows shortly after it starts and asserts the operator returns far
// sooner than the full product would take.
func TestCancelMidJoinReturnsPromptly(t *testing.T) {
	c := NewCluster(4)
	const n = 3000
	mk := func(col string, base uint32) *Relation {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{base + uint32(i)}
		}
		return c.exec().FromRows([]string{col}, rows)
	}
	left, right := mk("a", 0), mk("b", 1<<20)

	ctx, cancel := context.WithCancel(context.Background())
	x := c.NewExecContext(ctx)
	time.AfterFunc(5*time.Millisecond, cancel)

	start := time.Now()
	out := x.JoinWith(left, right, StrategyShuffle) // no shared columns: 9M-row cross join
	elapsed := time.Since(start)

	if err := x.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if out.NumRows() >= n*n {
		t.Errorf("cancelled cross join still produced all %d rows", out.NumRows())
	}
	// The full product takes hundreds of ms; a cancelled one must abort
	// within a few row batches. Generous bound to stay CI-safe.
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled join took %v, want prompt return", elapsed)
	}
}

// cancelOnCall is a Yielder that cancels its execution's context on its
// k-th call: the cancellation poll that made that call, and every poll
// after it, sees the context done.
type cancelOnCall struct {
	calls  atomic.Int64
	k      int64
	cancel context.CancelFunc
}

func (y *cancelOnCall) Yield() {
	if y.calls.Add(1) == y.k {
		y.cancel()
	}
}

// TestCancelEquiJoinProbe cancels an equi-join while its partition tasks
// probe, under both strategies. Every probe row matches exactly one build
// row, so the join's output counts the probe rows processed. The probe
// polls once per cancelBatch rows, and before the probe each task polls
// at most twice (its dispatch and its small build), so the output is at
// most one batch per poll before the cancelling one: after the cancel each
// task emits at most the batch it was in, though every task has more than
// ten batches to probe.
func TestCancelEquiJoinProbe(t *testing.T) {
	const (
		parts   = 4
		keys    = 1000 // the build side: one row per key, a direct table
		batches = 16   // probe batches per partition, give or take the hash
		k       = 12   // the poll that cancels
	)
	c := NewCluster(parts)
	var lrows, rrows []Row
	for i := 0; i < parts*batches*cancelBatch; i++ {
		lrows = append(lrows, Row{dict.ID(i % keys), dict.ID(i)})
	}
	for i := 0; i < keys; i++ {
		rrows = append(rrows, Row{dict.ID(i), dict.ID(keys + i)})
	}
	prep := c.exec()
	for _, strat := range []JoinStrategy{StrategyBroadcast, StrategyShuffle} {
		t.Run(strat.String(), func(t *testing.T) {
			left := prep.FromRows([]string{"a", "l"}, lrows)
			right := prep.FromRows([]string{"a", "r"}, rrows)
			if strat == StrategyShuffle {
				// Partitioned on the key up front, so the join's only
				// polls are each co-partition's dispatch, build and probe.
				left, right = prep.shuffle(left, 0), prep.shuffle(right, 0)
				for p, blk := range left.Parts {
					if blk.Len() <= 10*cancelBatch || right.Parts[p].Len() > cancelBatch {
						t.Fatalf("co-partition %d: %d probe rows, %d build rows", p, blk.Len(), right.Parts[p].Len())
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			y := &cancelOnCall{k: k, cancel: cancel}
			x := c.NewExecContext(WithYielder(ctx, y))
			out := x.JoinWith(left, right, strat)
			if err := x.Err(); err != context.Canceled {
				t.Fatalf("Err = %v, want context.Canceled", err)
			}
			got := out.NumRows()
			if got == 0 || got > (k-1)*cancelBatch {
				t.Errorf("cancelled join emitted %d pairs, want 1..%d (one batch per poll before the cancel)", got, (k-1)*cancelBatch)
			}
			if m := x.MetricsSnapshot().JoinComparisons; m != int64(got) {
				t.Errorf("JoinComparisons = %d, want %d (one per emitted pair)", m, got)
			}
		})
	}
}

// TestDeadlineExceededSurfacesInErr checks deadline expiry (rather than
// explicit cancel) is reported as context.DeadlineExceeded.
func TestDeadlineExceededSurfacesInErr(t *testing.T) {
	c := NewCluster(2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	x := c.NewExecContext(ctx)
	if err := x.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v, want context.DeadlineExceeded", err)
	}
}
