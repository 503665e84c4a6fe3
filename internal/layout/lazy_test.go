package layout

import (
	"maps"
	"reflect"
	"sync"
	"testing"
)

func TestLazyEnsureComputesOnDemand(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	f, l := pid(ds, "follows"), pid(ds, "likes")

	// Nothing built yet.
	if len(ds.ExtVP) != 0 || lazy.Computed != 0 {
		t.Fatal("dataset pre-populated")
	}
	// The paper's ExtVP_OS follows|likes = {(B,C)}, SF 0.25.
	key := ExtKey{OS, f, l}
	if info := ds.ExtInfo(key); info.Rows != 1 || info.SF != 0.25 || !info.Materialized {
		t.Errorf("info = %+v", info)
	}
	tbl := lazy.EnsureTable(key)
	if tbl == nil || tbl.NumRows() != 1 {
		t.Errorf("table = %v", tbl)
	}
	if lazy.Computed != 1 {
		t.Errorf("Computed = %d", lazy.Computed)
	}
	// A second call returns the kept rows.
	if again := lazy.EnsureTable(key); again != tbl || lazy.Computed != 1 {
		t.Errorf("EnsureTable rebuilt: Computed = %d", lazy.Computed)
	}
	// Empty reductions are counted but have no rows (SO follows|likes is
	// empty in G1).
	if info := ds.ExtInfo(ExtKey{SO, f, l}); info.Rows != 0 || info.SF != 0 {
		t.Errorf("empty reduction info = %+v", info)
	}
	if lazy.EnsureTable(ExtKey{SO, f, l}) != nil {
		t.Error("empty reduction built")
	}
	// Equal-to-VP reductions stay unmaterialized with SF 1.
	if info := ds.ExtInfo(ExtKey{SS, l, f}); info.SF != 1 || info.Materialized {
		t.Errorf("SF-1 reduction info = %+v", info)
	}
	if lazy.EnsureTable(ExtKey{SS, l, f}) != nil || lazy.Computed != 1 {
		t.Errorf("SF-1 reduction built: Computed = %d", lazy.Computed)
	}
}

func TestLazyEnsureUnknownPredicate(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	if tbl := lazy.EnsureTable(ExtKey{OS, 999, 998}); tbl != nil || lazy.Computed != 0 {
		t.Errorf("table = %v, Computed = %d", tbl, lazy.Computed)
	}
}

func TestLazyConcurrentEnsure(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	f, l := pid(ds, "follows"), pid(ds, "likes")
	keys := []ExtKey{
		{OS, f, l}, {OS, f, f}, {SO, f, f}, {SS, f, l}, {SO, l, f},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				lazy.EnsureTable(k)
			}
		}()
	}
	wg.Wait()
	if lazy.Computed != 5 {
		t.Errorf("Computed = %d, want 5", lazy.Computed)
	}
}

// TestSizesConcurrentWithLazy pins the monitoring contract: Sizes and Save
// may run while a lazy store builds rows, because building writes only the
// wrapper's own map. Under -race this is the regression test for the
// unsynchronized-map crash a serving lazy store could hit.
func TestSizesConcurrentWithLazy(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	f, l := pid(ds, "follows"), pid(ds, "likes")
	keys := []ExtKey{
		{OS, f, l}, {OS, f, f}, {SO, f, f}, {SS, f, l}, {SO, l, f},
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				lazy.EnsureTable(k)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ds.Sizes()
		}
		if err := Save(ds, dir); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got, want := ds.Sizes(), buildG1(t, DefaultOptions()).Sizes(); got != want {
		t.Errorf("lazy Sizes = %+v, want the eager %+v", got, want)
	}
}

// TestLazyStatsEpoch: a lazy dataset's statistics have a single epoch,
// its construction. Building rows, repeating a build, and looking up an
// empty or SF-1 reduction must leave Info and Sizes exactly as
// NewLazyExtVP left them, so no cache keyed on statistics can go stale.
func TestLazyStatsEpoch(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	f, l := pid(ds, "follows"), pid(ds, "likes")
	info, sizes := maps.Clone(ds.Info), ds.Sizes()
	if len(info) == 0 {
		t.Fatal("construction counted no statistics")
	}

	lazy.EnsureTable(ExtKey{OS, f, l})
	// Repeat lookups, an empty reduction (SO follows|likes) and an SF-1
	// one (SS likes|follows: every likes subject also follows) add nothing.
	lazy.EnsureTable(ExtKey{OS, f, l})
	lazy.EnsureTable(ExtKey{SO, f, l})
	if got := ds.ExtInfo(ExtKey{SS, l, f}); got.SF != 1 {
		t.Fatalf("SS likes|follows SF = %v, want 1", got.SF)
	}
	lazy.EnsureTable(ExtKey{SS, l, f})
	if lazy.Computed != 1 {
		t.Errorf("Computed = %d, want 1", lazy.Computed)
	}
	if !maps.Equal(ds.Info, info) {
		t.Errorf("Info moved: %v, was %v", ds.Info, info)
	}
	if got := ds.Sizes(); got != sizes {
		t.Errorf("Sizes moved: %+v, was %+v", got, sizes)
	}
}

// TestLazyCountsWithoutMaterializing pins the stats-first contract: the
// counting pass at construction records every candidate's statistics,
// equal to the eager build's, without building row copies; rows are built
// for a selected reduction only, exactly once.
func TestLazyCountsWithoutMaterializing(t *testing.T) {
	ds := Build(g1(), Options{BuildExtVP: false})
	lazy := NewLazyExtVP(ds)
	if eager := buildG1(t, DefaultOptions()); !reflect.DeepEqual(ds.Info, eager.Info) {
		t.Errorf("lazy Info = %v, want the eager %v", ds.Info, eager.Info)
	}
	if lazy.Computed != 0 || len(ds.ExtVP) != 0 || len(ds.ExtBits) != 0 {
		t.Errorf("counting built rows: Computed=%d, tables=%d, bits=%d", lazy.Computed, len(ds.ExtVP), len(ds.ExtBits))
	}
	key := ExtKey{OS, pid(ds, "follows"), pid(ds, "likes")}
	tbl := lazy.EnsureTable(key)
	if tbl == nil || tbl.NumRows() != 1 || lazy.Computed != 1 {
		t.Errorf("EnsureTable: tbl=%v Computed=%d", tbl, lazy.Computed)
	}
	if len(ds.ExtVP) != 0 {
		t.Error("EnsureTable wrote the dataset")
	}
}
