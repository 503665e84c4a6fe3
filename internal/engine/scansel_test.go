package engine

import (
	"reflect"
	"testing"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

func TestScanSelFiltersRows(t *testing.T) {
	x := NewCluster(3).exec()
	tbl := store.NewTable("t", "s", "o")
	for i := 0; i < 10; i++ {
		tbl.Append(dict.ID(i), dict.ID(i*10))
	}
	sel := bitvec.New(10)
	sel.Set(2)
	sel.Set(5)
	sel.Set(9)
	rel := mustScan(x, tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}, Sel: sel, SelRows: sel.Count()})
	rowsEqual(t, rel, []Row{{2, 20}, {5, 50}, {9, 90}})
	// Metered scan cost = selected rows only.
	if got := x.MetricsSnapshot().RowsScanned; got != 3 {
		t.Errorf("RowsScanned = %d, want 3", got)
	}
}

func TestScanSelWithConditions(t *testing.T) {
	c := NewCluster(2)
	tbl := store.NewTable("t", "s", "o")
	tbl.Append(1, 7)
	tbl.Append(2, 7)
	tbl.Append(3, 8)
	sel := bitvec.New(3)
	sel.Set(0)
	sel.Set(2)
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}}, Conds: []ScanCondition{{Col: "o", Value: 7}}, Sel: sel, SelRows: sel.Count()})
	rowsEqual(t, rel, []Row{{1}}) // row 1 (2,7) excluded by bitset
}

func TestScanSelNilBitsetFallsBack(t *testing.T) {
	c := NewCluster(2)
	tbl := store.NewTable("t", "s", "o")
	tbl.Append(1, 2)
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}}})
	if rel.NumRows() != 1 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

func TestScanSelRepeatedVariable(t *testing.T) {
	c := NewCluster(2)
	tbl := store.NewTable("t", "s", "o")
	tbl.Append(1, 1)
	tbl.Append(2, 3)
	sel := bitvec.New(2)
	sel.Set(0)
	sel.Set(1)
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "x"}}, Sel: sel, SelRows: sel.Count()})
	if !reflect.DeepEqual(rel.Schema, []string{"x"}) {
		t.Fatalf("schema = %v", rel.Schema)
	}
	rowsEqual(t, rel, []Row{{1}})
}

func TestScanSelEmptyTable(t *testing.T) {
	c := NewCluster(2)
	tbl := store.NewTable("t", "s", "o")
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}}, Sel: bitvec.New(0)})
	if rel.NumRows() != 0 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}
