package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s2rdf/internal/dict"
)

func buildMetaTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("meta", "s", "o")
	n := 3089
	for i := 0; i < n; i++ {
		tbl.Append(dict.ID(i/3), dict.ID(1000+(i*7)%513))
	}
	tbl.Finalize()
	return tbl
}

func TestFinalizeStatistics(t *testing.T) {
	tbl := buildMetaTable(t)
	if tbl.SortCol != 0 || tbl.SortColName() != "s" {
		t.Fatalf("SortCol = %d (%q), want column s", tbl.SortCol, tbl.SortColName())
	}
	for c := range tbl.Cols {
		// Distinct counts are exact.
		seen := map[dict.ID]struct{}{}
		for _, v := range tbl.Data[c] {
			seen[v] = struct{}{}
		}
		if tbl.Distinct[c] != len(seen) {
			t.Fatalf("col %d: distinct %d, want %d", c, tbl.Distinct[c], len(seen))
		}
	}
	if tbl.DistinctOf("o") != tbl.Distinct[1] {
		t.Error("DistinctOf(o) mismatch")
	}
	// Appending invalidates the statistics.
	tbl.Append(0, 0)
	if tbl.Distinct != nil || tbl.SortCol != -1 {
		t.Error("Append did not invalidate Finalize statistics")
	}
}

// TestFormatRoundTripsStatistics asserts the binary format preserves the
// sort column and distinct counts exactly.
func TestFormatRoundTripsStatistics(t *testing.T) {
	tbl := buildMetaTable(t)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SortCol != tbl.SortCol {
		t.Errorf("SortCol = %d, want %d", got.SortCol, tbl.SortCol)
	}
	if !reflect.DeepEqual(got.Distinct, tbl.Distinct) {
		t.Errorf("Distinct mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Data, tbl.Data) {
		t.Errorf("Data mismatch after round trip")
	}
}

// TestFinalizeDistinctMatchesMapCount pins Finalize's NDV of unsorted
// columns, counted in a bitset or over a sorted copy, to a map count.
func TestFinalizeDistinctMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := map[string][]dict.ID{}
	for _, c := range []struct {
		name   string
		rows   int
		lo, hi dict.ID
	}{
		{"dense", 5000, 0, 700},
		{"offset", 3000, 1 << 20, 1<<20 + 4000},
		{"wide", 200, 0, 1 << 30}, // largest ID far beyond the row count
		{"pair", 100, 5, 6},
	} {
		col := make([]dict.ID, c.rows)
		for i := range col {
			col[i] = c.lo + dict.ID(rng.Int63n(int64(c.hi-c.lo)+1))
		}
		cols[c.name] = col
	}
	withNull := slices.Clone(cols["dense"])
	for i := 0; i < len(withNull); i += 7 {
		withNull[i] = dict.NoID // the engine's Null
	}
	cols["null"] = withNull
	for name, col := range cols {
		if slices.IsSorted(col) {
			t.Fatalf("%s: column is sorted, so its NDV is a run count", name)
		}
		tbl := NewTable(name, "x", "c")
		tbl.Data[0] = make([]dict.ID, len(col)) // all zero: sorted, so c is not
		tbl.Data[1] = col
		tbl.Finalize()
		seen := map[dict.ID]struct{}{}
		for _, v := range col {
			seen[v] = struct{}{}
		}
		if got := tbl.DistinctOf("c"); got != len(seen) {
			t.Errorf("%s: distinct %d, want %d", name, got, len(seen))
		}
	}
}
