package engine

import (
	"math/rand"
	"reflect"
	"slices"
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

// chainsMatch builds a join table over keys and checks that it is of the
// expected kind, that every key's chain lists exactly its rows in build
// order (against a reference map), and that each absent key misses.
func chainsMatch(t *testing.T, x *Exec, keys []dict.ID, direct bool, absent ...dict.ID) bool {
	t.Helper()
	ref := map[dict.ID][]int32{}
	for i, k := range keys {
		ref[k] = append(ref[k], int32(i))
	}
	ht := x.buildJoinTable(keys)
	if ht.direct() != direct {
		t.Logf("%d keys from %d to %d: direct = %v, want %v", len(keys), slices.Min(keys), slices.Max(keys), ht.direct(), direct)
		return false
	}
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
	for _, k := range absent {
		if _, ok := ref[k]; ok {
			t.Fatalf("absent key %d was inserted", k)
		}
		if i := ht.first(k); i >= 0 {
			t.Logf("never-inserted key %d found row %d", k, i)
			return false
		}
	}
	return true
}

// TestJoinTableChains checks insertion order, duplicate keys and misses
// against a reference map on both kinds of table: Null-free keys in a
// narrow span build a direct table; a Null key, or keys spread wide, build
// a hashed one, where collisions chain and Null is an ordinary key.
func TestJoinTableChains(t *testing.T) {
	x := NewCluster(1).exec()
	// dense maps quick's values onto 0..16 without 7, so 7 is a key inside
	// the span that is never inserted. Keys 16, 0 and 8 always lead, so the
	// span is the full 17 and at least 3 rows size the table (8 slots).
	dense := func(vals []uint32) []dict.ID {
		keys := []dict.ID{16, 0, 8}
		for _, v := range vals {
			k := dict.ID(v % 17)
			if k == 7 {
				k = 8
			}
			keys = append(keys, k)
		}
		return keys
	}
	for _, tc := range []struct {
		name   string
		keys   func([]uint32) []dict.ID
		direct bool
		absent []dict.ID
	}{
		{"direct", dense, true, []dict.ID{7, 17, 1 << 30, Null}},
		{"hashed/null", func(vals []uint32) []dict.ID {
			keys := dense(vals)
			for i := range keys {
				if i%13 == 2 {
					keys[i] = Null
				}
			}
			return keys
		}, false, []dict.ID{7, 17, 1 << 30}},
		{"hashed/wide", func(vals []uint32) []dict.ID {
			keys := dense(vals)
			for i := range keys {
				keys[i] <<= 20
			}
			return keys
		}, false, []dict.ID{7, 7 << 20, 17 << 20, Null}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(vals []uint32) bool {
				return chainsMatch(t, x, tc.keys(vals), tc.direct, tc.absent...)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestJoinTableKindBoundary pins the choice between the kinds: a key span
// of up to 3 hashed slots builds direct, one more builds hashed, and a
// direct table never takes more bytes than tableBytes accounts.
func TestJoinTableKindBoundary(t *testing.T) {
	x := NewCluster(1).exec()
	for _, n := range []int{2, 5, 300} {
		slots := len(newIndexTable(n).head)
		for _, base := range []dict.ID{0, 1000} {
			for _, span := range []int{3 * slots, 3*slots + 1} {
				keys := make([]dict.ID, n)
				for i := range keys {
					keys[i] = base + dict.ID(i*(span-1)/(n-1))
				}
				// Keys spread evenly from base to base+span-1; one inside
				// the span, one above it and, from base 1000, key 0 and one
				// just below it were never inserted.
				absent := []dict.ID{base + dict.ID(span-2), base + dict.ID(span)}
				if base > 0 {
					absent = append(absent, base-1, 0)
				}
				if !chainsMatch(t, x, keys, span <= 3*slots, absent...) {
					t.Errorf("n=%d base=%d span=%d: chains or kind wrong", n, base, span)
				}
				if ht := newJoinTable(keys); ht.direct() {
					if got := int64(len(ht.head)+len(ht.next)) * 4; got > tableBytes(n) {
						t.Errorf("n=%d span=%d: direct table holds %d B, tableBytes %d", n, span, got, tableBytes(n))
					}
				}
			}
		}
	}
}

// TestJoinTableKindsJoinAlike runs one two-column-key join over a direct
// build and over a hashed one and requires the same rows in the same
// order, and the nested-loop answer. The hashed build differs only by a
// Null-keyed row that matches nothing. Under broadcast every partition
// probes the one build concurrently.
func TestJoinTableKindsJoinAlike(t *testing.T) {
	c := NewCluster(4)
	rng := rand.New(rand.NewSource(3))
	var lrows, rrows []Row
	for i := 0; i < 4000; i++ {
		lrows = append(lrows, Row{dict.ID(rng.Intn(64)), dict.ID(rng.Intn(4)), dict.ID(i)})
	}
	for i := 0; i < 500; i++ {
		rrows = append(rrows, Row{dict.ID(rng.Intn(64)), dict.ID(rng.Intn(4)), dict.ID(i)})
	}
	var want []Row
	for _, l := range lrows {
		for _, r := range rrows {
			if l[0] == r[0] && l[1] == r[1] {
				want = append(want, Row{l[0], l[1], l[2], r[2]})
			}
		}
	}
	sortRows(want)
	schemaL, schemaR := []string{"a", "b", "l"}, []string{"a", "b", "r"}
	withNull := append(append([]Row(nil), rrows...), Row{Null, 0, 999})
	for _, strat := range []JoinStrategy{StrategyBroadcast, StrategyShuffle} {
		t.Run(strat.String(), func(t *testing.T) {
			x := c.exec()
			left := x.FromRows(schemaL, lrows)
			direct := x.FromRows(schemaR, rrows)
			hashed := x.FromRows(schemaR, withNull)
			if strat == StrategyBroadcast {
				if !newJoinTable(direct.gather().cols[0]).direct() || newJoinTable(hashed.gather().cols[0]).direct() {
					t.Fatal("builds are not one direct and one hashed table")
				}
			}
			got := x.JoinWith(left, direct, strat)
			rowsEqual(t, got, want)
			if other := x.JoinWith(left, hashed, strat).Rows(); !reflect.DeepEqual(other, got.Rows()) {
				t.Errorf("hashed build joined %d rows, direct %d, or in another order", len(other), got.NumRows())
			}
		})
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
