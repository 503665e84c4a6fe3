package engine

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

func TestBlockAppendAndGather(t *testing.T) {
	b := NewBlock(3, 2)
	b.Append(Row{1, 2, 3})
	b.Append(Row{4, 5, 6})
	b.Append(Row{7, 8, 9}) // exceeds the preallocated capacity: columns grow
	if b.Len() != 3 || b.Arity() != 3 {
		t.Fatalf("Len=%d Arity=%d", b.Len(), b.Arity())
	}
	want := []Row{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for i, w := range want {
		if !reflect.DeepEqual(b.Row(i), w) {
			t.Errorf("Row(%d) = %v, want %v", i, b.Row(i), w)
		}
	}
	// Columns are contiguous per-column slices.
	if got := b.Col(1); !reflect.DeepEqual(got, []dict.ID{2, 5, 8}) {
		t.Errorf("Col(1) = %v", got)
	}
	// Preallocated columns must be capacity-clipped so growing one column
	// never bleeds into the backing buffer of its neighbour.
	b2 := NewBlock(2, 2)
	b2.Append(Row{10, 20})
	b2.cols[0] = append(b2.cols[0], 99, 99) // grow col 0 past its share
	if b2.cols[1][0] != 20 {
		t.Error("growing a column overwrote the neighbour column's buffer")
	}
	// gatherSel materializes selected rows; gatherPairs pads rsel<0 with
	// Nulls — the two materialization points of the pipeline.
	g := b.gatherSel([]int32{2, 0})
	if !reflect.DeepEqual(g.Row(0), Row{7, 8, 9}) || !reflect.DeepEqual(g.Row(1), Row{1, 2, 3}) {
		t.Errorf("gatherSel rows = %v, %v", g.Row(0), g.Row(1))
	}
	r := NewBlock(2, 2)
	r.Append(Row{100, 200})
	p := gatherPairs(b, []int32{0, 1}, r, []int{1}, []int32{0, -1})
	wantP := []Row{{1, 2, 3, 200}, {4, 5, 6, Null}}
	for i, w := range wantP {
		if !reflect.DeepEqual(p.Row(i), w) {
			t.Errorf("gatherPairs row %d = %v, want %v", i, p.Row(i), w)
		}
	}
}

func TestBlockAppendBlock(t *testing.T) {
	a := NewBlock(2, 0)
	a.Append(Row{1, 2})
	b := NewBlock(2, 1)
	b.Append(Row{3, 4})
	b.Append(Row{5, 6})
	a.AppendBlock(b)
	a.AppendBlock(nil) // nil src is an empty block
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	if !reflect.DeepEqual(a.Row(2), Row{5, 6}) {
		t.Errorf("Row(2) = %v", a.Row(2))
	}
}

func TestBlockZeroArity(t *testing.T) {
	b := NewBlock(0, 0)
	b.Append(Row{})
	b.Append(Row{})
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.Row(1); len(got) != 0 {
		t.Errorf("Row(1) = %v, want empty", got)
	}
	var nilBlock *Block
	if nilBlock.Len() != 0 {
		t.Error("nil block Len != 0")
	}
}

// TestJoinTableChains checks insertion order, duplicate keys, collisions
// and the Null key against a reference map implementation.
func TestJoinTableChains(t *testing.T) {
	x := NewCluster(1).exec()
	f := func(keys []uint32) bool {
		b := NewBlock(1, len(keys))
		ref := map[dict.ID][]int32{}
		for i, k := range keys {
			k := dict.ID(k % 17) // force duplicates and collisions
			if i%13 == 0 {
				k = Null // Null must behave as an ordinary key
			}
			b.Append(Row{k})
			ref[k] = append(ref[k], int32(i))
		}
		ht := x.buildJoinTable(b, 0)
		for k, want := range ref {
			var got []int32
			for i := ht.first(k); i >= 0; i = ht.next[i] {
				got = append(got, i)
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("key %d: chain %v, want %v", k, got, want)
				return false
			}
		}
		// A key that was never inserted must miss.
		if ht.first(dict.ID(1<<30)) >= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionDisjointSchemasPadsNull(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x"}, []Row{{1}})
	b := c.exec().FromRows([]string{"y"}, []Row{{2}})
	res := c.exec().Union(a, b)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, Null}, {Null, 2}})
}

func TestUnionOverlappingSchemas(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}, {3, 4}})
	b := c.exec().FromRows([]string{"y", "z"}, []Row{{4, 5}})
	res := c.exec().Union(a, b)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, 2, Null}, {3, 4, Null}, {Null, 4, 5}})
}

// TestUnionThenJoinReshuffles pins the partition-count contract: a union's
// partition count is the sum of its inputs' (exceeding the cluster's), and
// a downstream join must re-shuffle it rather than zip partitions by index.
func TestUnionThenJoinReshuffles(t *testing.T) {
	c := NewCluster(3)
	var arows, brows []Row
	for i := 0; i < 30; i++ {
		arows = append(arows, Row{dict.ID(i), dict.ID(100 + i)})
		brows = append(brows, Row{dict.ID(30 + i), dict.ID(200 + i)})
	}
	u := c.exec().Union(
		c.exec().FromRows([]string{"x", "y"}, arows),
		c.exec().FromRows([]string{"x", "y"}, brows),
	)
	if len(u.Parts) != 2*c.Partitions() {
		t.Fatalf("union has %d partitions, want %d", len(u.Parts), 2*c.Partitions())
	}
	var rrows []Row
	for i := 0; i < 60; i++ {
		rrows = append(rrows, Row{dict.ID(i), dict.ID(300 + i)})
	}
	right := c.exec().FromRows([]string{"x", "z"}, rrows)
	res := c.exec().JoinWith(u, right, StrategyShuffle)
	if res.NumRows() != 60 {
		t.Errorf("join after union = %d rows, want 60", res.NumRows())
	}
	if len(res.Parts) != c.Partitions() {
		t.Errorf("join output has %d partitions, want %d", len(res.Parts), c.Partitions())
	}
}

func TestUnionEmptySide(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}})
	empty := c.exec().FromRows([]string{"x", "y"}, nil)
	res := c.exec().Union(a, empty)
	rowsEqual(t, res, []Row{{1, Null}, {2, Null}})
}

// TestOperatorsMeterRowsOutput asserts the metering contract of the
// formerly unmetered operators: Filter, Project, Union and Distinct each
// add their output cardinality to RowsOutput, so per-query totals account
// every operator uniformly.
func TestOperatorsMeterRowsOutput(t *testing.T) {
	c := NewCluster(2)
	x := c.NewExec()

	rel := x.FromRows([]string{"x", "y"},
		[]Row{{1, 2}, {1, 2}, {2, 3}, {3, 4}}) // FromRows does not meter
	if got := x.MetricsSnapshot().RowsOutput; got != 0 {
		t.Fatalf("RowsOutput after FromRows = %d, want 0", got)
	}

	total := int64(0)
	filtered := x.Filter(rel, func(r Row) bool { return r[0] < 3 }) // 3 rows
	total += int64(filtered.NumRows())
	if got := x.MetricsSnapshot().RowsOutput; got != total {
		t.Errorf("after Filter: RowsOutput = %d, want %d", got, total)
	}

	projected := x.Project(filtered, []string{"x"}) // 3 rows
	total += int64(projected.NumRows())
	if got := x.MetricsSnapshot().RowsOutput; got != total {
		t.Errorf("after Project: RowsOutput = %d, want %d", got, total)
	}

	unioned := x.Union(projected, x.FromRows([]string{"x"}, []Row{{9}})) // 4 rows
	total += int64(unioned.NumRows())
	if got := x.MetricsSnapshot().RowsOutput; got != total {
		t.Errorf("after Union: RowsOutput = %d, want %d", got, total)
	}

	distinct := x.Distinct(unioned) // {1},{2},{9}
	total += int64(distinct.NumRows())
	if distinct.NumRows() != 3 {
		t.Fatalf("Distinct = %d rows, want 3", distinct.NumRows())
	}
	if got := x.MetricsSnapshot().RowsOutput; got != total {
		t.Errorf("after Distinct: RowsOutput = %d, want %d", got, total)
	}
}

func TestScanUnknownColumnErrors(t *testing.T) {
	c := NewCluster(2)
	tbl := store.NewTable("VP:follows", "s", "o")
	tbl.Append(1, 2)

	// ScanTable — the query-serving path — reports unknown columns as
	// errors, never panics: a compiler defect must fail one query, not the
	// process.
	_, _, err := c.exec().ScanTable(tbl, ScanSpec{
		Projs: []ScanProjection{{Col: "s", As: "x"}},
		Conds: []ScanCondition{{Col: "p", Value: 7}},
	})
	if err == nil || !strings.Contains(err.Error(), `"p"`) || !strings.Contains(err.Error(), "VP:follows") {
		t.Errorf("condition: err %v, want mention of %q and the table name", err, "p")
	}
	_, _, err = c.exec().ScanTable(tbl, ScanSpec{
		Projs: []ScanProjection{{Col: "nope", As: "x"}},
	})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "VP:follows") {
		t.Errorf("projection: err %v, want mention of %q and the table name", err, "nope")
	}

}

func TestEachRowMatchesRows(t *testing.T) {
	c := NewCluster(3)
	var rows []Row
	for i := 0; i < 50; i++ {
		rows = append(rows, Row{dict.ID(i), dict.ID(i * 2)})
	}
	rel := c.exec().FromRows([]string{"a", "b"}, rows)
	var got []Row
	rel.EachRow(func(i int, row Row) bool {
		if i != len(got) {
			t.Fatalf("index %d out of order (have %d rows)", i, len(got))
		}
		got = append(got, append(Row{}, row...))
		return true
	})
	if !reflect.DeepEqual(got, rel.Rows()) {
		t.Error("EachRow and Rows disagree")
	}
	// Early stop.
	n := 0
	rel.EachRow(func(i int, row Row) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop visited %d rows, want 10", n)
	}
}

func TestLimitOffsetOnBlocks(t *testing.T) {
	c := NewCluster(4)
	var rows []Row
	for i := 0; i < 20; i++ {
		rows = append(rows, Row{dict.ID(i)})
	}
	rel := c.exec().FromRows([]string{"x"}, rows)
	if got := c.exec().Limit(rel, 5, 0).NumRows(); got != 0 {
		t.Errorf("Limit(5, 0) = %d rows, want 0", got)
	}
	if got := c.exec().Limit(rel, 18, 10).NumRows(); got != 2 {
		t.Errorf("Limit(18, 10) = %d rows, want 2", got)
	}
}
