package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
	"s2rdf/internal/store"
)

// The spill chaos suite: inject disk faults into the spill path and prove
// the retry → in-memory-fallback ladder always produces exactly the
// in-memory join's results, while the health reporter sees the outcomes.

// spillWorkload returns join inputs big enough to force several bufio
// flushes per spill run.
func spillWorkload() (left, right []Row) {
	left = make([]Row, 3000)
	for i := range left {
		left[i] = Row{dict.ID(i % 97), dict.ID(i)}
	}
	right = make([]Row, 2000)
	for i := range right {
		right[i] = Row{dict.ID(i % 97), dict.ID(100000 + i)}
	}
	return left, right
}

// joinUnderInjector runs the budgeted (spilling) shuffle join with fs
// injected, returning the sorted rows and the per-query metrics.
func joinUnderInjector(t *testing.T, fs fault.FS, rep FaultReporter) ([]Row, MetricsSnapshot) {
	t.Helper()
	left, right := spillWorkload()
	c := NewCluster(2)
	x := c.NewExecContext(context.Background())
	x.SetMemBudget(1, t.TempDir())
	x.SetFaultPolicy(fs, rep)
	got := sortedRows(x.JoinWith(
		x.FromRows([]string{"k", "l"}, left),
		x.FromRows([]string{"k", "r"}, right), StrategyShuffle))
	return got, x.MetricsSnapshot()
}

// joinInMemory is the reference: same join, no budget, no faults.
func joinInMemory(t *testing.T) []Row {
	t.Helper()
	left, right := spillWorkload()
	c := NewCluster(2)
	x := c.NewExec()
	return sortedRows(x.JoinWith(
		x.FromRows([]string{"k", "l"}, left),
		x.FromRows([]string{"k", "r"}, right), StrategyShuffle))
}

func assertRowsEqual(t *testing.T, got, want []Row, desc string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", desc, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", desc, i, got[i], want[i])
		}
	}
}

// TestFaultSpillTransientRetry: the first spill write fails, the retry
// succeeds — the join still spills (no fallback) and the results are
// identical. The reporter sees the failure and the healing success.
func TestFaultSpillTransientRetry(t *testing.T) {
	want := joinInMemory(t)
	in := fault.NewInjector(fault.OS)
	in.FailNthWrite(1, nil)
	h := fault.NewHealth()
	got, m := joinUnderInjector(t, in, h)
	assertRowsEqual(t, got, want, "transient-fault spilled join")
	if m.BytesSpilled == 0 {
		t.Fatal("join did not spill after transient fault: retry did not engage")
	}
	snap := h.Snapshot()
	if snap.IOFailures == 0 {
		t.Fatal("health reporter saw no I/O failure")
	}
	if h.State() != fault.Healthy {
		t.Fatalf("health = %v after recovered transient fault, want Healthy", h.State())
	}
}

// TestFaultSpillPersistentFallback: every write fails — after the bounded
// retries the in-memory fallback engages and the results are still
// identical. The repeated failures degrade health.
func TestFaultSpillPersistentFallback(t *testing.T) {
	want := joinInMemory(t)
	in := fault.NewInjector(fault.OS)
	in.FailWritesFrom(1, nil)
	h := fault.NewHealth()
	got, m := joinUnderInjector(t, in, h)
	assertRowsEqual(t, got, want, "persistent-fault fallback join")
	if m.BytesSpilled != 0 {
		t.Fatalf("BytesSpilled = %d with every write failing", m.BytesSpilled)
	}
	snap := h.Snapshot()
	if snap.IOFailures < spillRetries {
		t.Fatalf("reporter saw %d failures, want at least %d (the bounded retries)",
			snap.IOFailures, spillRetries)
	}
	if h.State() != fault.Degraded {
		t.Fatalf("health = %v after persistent spill failures, want Degraded", h.State())
	}
}

// TestFaultSpillCreateFailure: the temp-file create itself failing takes
// the same retry-then-fallback ladder.
func TestFaultSpillCreateFailure(t *testing.T) {
	want := joinInMemory(t)
	in := fault.NewInjector(fault.OS)
	for i := 1; i <= 64; i++ {
		in.FailNthCreate(i, nil)
	}
	got, _ := joinUnderInjector(t, in, fault.NewHealth())
	assertRowsEqual(t, got, want, "create-fault fallback join")
}

// TestFaultSpillTornWrite: a write that silently persists only half its
// buffer must be detected at merge time (the run comes up short against
// its accounted size) and answered with the in-memory fallback — never
// with dropped join matches.
func TestFaultSpillTornWrite(t *testing.T) {
	want := joinInMemory(t)
	for _, nth := range []int{1, 2, 3} {
		in := fault.NewInjector(fault.OS)
		in.TearNthWrite(nth)
		h := fault.NewHealth()
		got, _ := joinUnderInjector(t, in, h)
		assertRowsEqual(t, got, want, "torn-write join")
		if h.Snapshot().IOFailures == 0 {
			t.Fatalf("tear write %d: torn run was not reported as an I/O failure", nth)
		}
	}
}

// TestFaultSpillReadFailure: a read failure during the merge phase also
// falls back with identical results.
func TestFaultSpillReadFailure(t *testing.T) {
	want := joinInMemory(t)
	in := fault.NewInjector(fault.OS)
	in.FailReadsFrom(1, nil)
	got, _ := joinUnderInjector(t, in, fault.NewHealth())
	assertRowsEqual(t, got, want, "read-fault fallback join")
}

// TestPanicInParallelWorkerContained: a panic inside a partition task is
// re-raised on the coordinator as a typed *PanicError — it must not kill
// the test process by escaping on a bare worker goroutine.
func TestPanicInParallelWorkerContained(t *testing.T) {
	tbl := store.NewTable("VP:p", "s", "o")
	for i := 0; i < 50000; i++ {
		tbl.Append(dict.ID(i), dict.ID(i%17))
	}
	tbl.Finalize()

	c := NewCluster(8)
	if c.workers < 2 {
		c.workers = 2
	}
	x := c.NewExecContext(context.Background())

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic did not reach the coordinator")
		}
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *PanicError", r, r)
		}
		if pe.Value != "operator bug" {
			t.Fatalf("PanicError.Value = %v, want the original panic value", pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError.Stack is empty")
		}
	}()
	x.ScanTable(tbl, ScanSpec{
		Projs: []ScanProjection{{Col: "s", As: "x"}},
		Pred:  func(Row) bool { panic("operator bug") },
	})
}

// TestPanicSequentialPathPropagates: with a single worker the panic
// unwinds the coordinator stack directly (no goroutine crossing needed).
func TestPanicSequentialPathPropagates(t *testing.T) {
	tbl := store.NewTable("VP:p", "s", "o")
	tbl.Append(1, 2)
	tbl.Finalize()

	c := NewCluster(1)
	c.workers = 1
	x := c.NewExec()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("sequential-path panic was swallowed")
		}
	}()
	x.ScanTable(tbl, ScanSpec{
		Projs: []ScanProjection{{Col: "s", As: "x"}},
		Pred:  func(Row) bool { panic("operator bug") },
	})
}

// TestPanicErrorWrapping: PanicError formats its value, and the injected
// sentinel survives the spill retry ladder into reporter observations.
func TestPanicErrorWrapping(t *testing.T) {
	pe := &PanicError{Value: "boom"}
	if pe.Error() == "" || !errors.Is(fault.ErrInjected, fault.ErrInjected) {
		t.Fatal("impossible")
	}
}
