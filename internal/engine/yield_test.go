package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"s2rdf/internal/dict"
)

// countingYielder records how many times the engine invoked the hook.
type countingYielder struct{ calls atomic.Int64 }

func (y *countingYielder) Yield() { y.calls.Add(1) }

// yieldRows builds a single-column relation large enough that row loops
// cross several cancelBatch boundaries per partition.
func yieldRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{dict.ID(i + 1)}
	}
	return rows
}

// TestSchedYieldHookInvoked checks the scheduler pacing contract: an
// execution whose context carries a Yielder calls it at the row-batch
// cancellation points, an execution without one never does, and the hook
// riding on Cancelled does not change operator output.
func TestSchedYieldHookInvoked(t *testing.T) {
	c := NewCluster(2)
	var y countingYielder
	x := c.NewExecContext(WithYielder(context.Background(), &y))

	const n = 8 * cancelBatch
	rel := x.FromRows([]string{"v"}, yieldRows(n))
	out := x.Filter(rel, func(r Row) bool { return r[0]%2 == 0 })
	if got := out.NumRows(); got != n/2 {
		t.Fatalf("filtered rows = %d, want %d", got, n/2)
	}
	if y.calls.Load() == 0 {
		t.Fatal("yielder never invoked across row-batch boundaries")
	}

	// A plain execution (no yielder on the context) must not pay any
	// pacing cost paths: same work, hook untouched.
	before := y.calls.Load()
	x2 := c.NewExecContext(context.Background())
	out2 := x2.Filter(x2.FromRows([]string{"v"}, yieldRows(n)), func(r Row) bool { return r[0]%2 == 0 })
	if got := out2.NumRows(); got != n/2 {
		t.Fatalf("plain exec filtered rows = %d, want %d", got, n/2)
	}
	if y.calls.Load() != before {
		t.Error("yielder invoked by an execution that does not carry it")
	}
}

// TestSchedYieldHookWithoutContext checks the uncancellable fast path: an
// Exec with neither context nor yielder still short-circuits stop().
func TestSchedYieldHookWithoutContext(t *testing.T) {
	c := NewCluster(2)
	x := c.NewExec()
	if x.stop(cancelBatch) {
		t.Fatal("uncancellable exec reported stop")
	}
	var y countingYielder
	x3 := c.NewExecContext(WithYielder(context.Background(), &y))
	if x3.stop(cancelBatch) {
		t.Fatal("yield-only exec reported stop")
	}
	if y.calls.Load() != 1 {
		t.Fatalf("stop at a batch boundary invoked the yielder %d times, want 1", y.calls.Load())
	}
	if x3.stop(cancelBatch + 1) {
		t.Fatal("off-boundary stop reported stop")
	}
	if y.calls.Load() != 1 {
		t.Error("off-boundary stop invoked the yielder")
	}
}
