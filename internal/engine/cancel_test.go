package engine

import (
	"context"
	"testing"
	"time"
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
