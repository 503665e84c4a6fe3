package store

import (
	"bytes"
	"reflect"
	"testing"

	"s2rdf/internal/dict"
)

func buildMetaTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("meta", "s", "o")
	n := 3*ZoneSize + 17 // multiple zones plus a partial tail
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
	n := tbl.NumRows()
	wantZones := (n + ZoneSize - 1) / ZoneSize
	for c := range tbl.Cols {
		m := &tbl.Meta[c]
		if len(m.ZoneMin) != wantZones || len(m.ZoneMax) != wantZones {
			t.Fatalf("col %d: %d/%d zones, want %d", c, len(m.ZoneMin), len(m.ZoneMax), wantZones)
		}
		// Zone maps must bound their chunk exactly.
		for z := 0; z < wantZones; z++ {
			lo, hi := z*ZoneSize, (z+1)*ZoneSize
			if hi > n {
				hi = n
			}
			min, max := tbl.Data[c][lo], tbl.Data[c][lo]
			for _, v := range tbl.Data[c][lo:hi] {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			if m.ZoneMin[z] != min || m.ZoneMax[z] != max {
				t.Fatalf("col %d zone %d: [%d,%d], want [%d,%d]",
					c, z, m.ZoneMin[z], m.ZoneMax[z], min, max)
			}
		}
		// Distinct counts are exact.
		seen := map[dict.ID]struct{}{}
		for _, v := range tbl.Data[c] {
			seen[v] = struct{}{}
		}
		if m.Distinct != len(seen) {
			t.Fatalf("col %d: distinct %d, want %d", c, m.Distinct, len(seen))
		}
	}
	if tbl.DistinctOf("o") != tbl.Meta[1].Distinct {
		t.Error("DistinctOf(o) mismatch")
	}
	// Appending invalidates the statistics.
	tbl.Append(0, 0)
	if tbl.Meta != nil || tbl.SortCol != -1 {
		t.Error("Append did not invalidate Finalize statistics")
	}
}

func TestZoneSkips(t *testing.T) {
	m := ColMeta{ZoneMin: []dict.ID{10, 100}, ZoneMax: []dict.ID{20, 200}}
	if m.ZoneSkips(0, 15) || m.ZoneSkips(1, 100) {
		t.Error("in-range value skipped")
	}
	if !m.ZoneSkips(0, 5) || !m.ZoneSkips(0, 25) || !m.ZoneSkips(1, 99) {
		t.Error("out-of-range value not skipped")
	}
	if m.ZoneSkips(2, 0) {
		t.Error("unknown zone must not skip (conservative)")
	}
}

// TestFormatRoundTripsStatistics asserts the binary format preserves the
// sort column, zone maps and distinct counts exactly.
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
	if !reflect.DeepEqual(got.Meta, tbl.Meta) {
		t.Errorf("Meta mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Data, tbl.Data) {
		t.Errorf("Data mismatch after round trip")
	}
}

// TestFormatRoundTripsWithoutStatistics: a never-finalized table writes no
// zone maps and reads back with none — not a recomputed guess.
func TestFormatRoundTripsWithoutStatistics(t *testing.T) {
	tbl := NewTable("raw", "s", "o")
	tbl.Append(3, 4)
	tbl.Append(1, 2)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SortCol != -1 {
		t.Errorf("SortCol = %d, want -1", got.SortCol)
	}
	for c := range got.Meta {
		if len(got.Meta[c].ZoneMin) != 0 || got.Meta[c].Distinct != 0 {
			t.Errorf("col %d: unexpected statistics %+v", c, got.Meta[c])
		}
	}
	if !reflect.DeepEqual(got.Data, tbl.Data) {
		t.Errorf("Data mismatch after round trip")
	}
}
