package engine

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

func sortedRows(r *Relation) []Row {
	rows := r.Rows()
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func rowsEqual(t *testing.T, got *Relation, want []Row) {
	t.Helper()
	g := sortedRows(got)
	if len(g) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(g), g, len(want), want)
	}
	for i := range want {
		if !reflect.DeepEqual(g[i], want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, g, want)
		}
	}
}

// exec returns an aggregate-only execution handle on c, for tests that run
// single operators without per-query accounting.
func (c *Cluster) exec() *Exec { return c.NewExec(nil) }

// mustScan runs ScanTable and panics on a spec the table rejects: tests
// build both table and spec, so a rejection is a bug in the test itself.
func mustScan(x *Exec, t *store.Table, spec ScanSpec) *Relation {
	rel, _, err := x.ScanTable(t, spec)
	if err != nil {
		panic(err)
	}
	return rel
}

// g1VP builds the paper's running-example graph G1 as VP tables.
// IDs: A=0 B=1 C=2 D=3 I1=4 I2=5.
func g1VP() (follows, likes *store.Table) {
	follows = store.NewTable("VP:follows", "s", "o")
	follows.Append(0, 1) // A follows B
	follows.Append(1, 2) // B follows C
	follows.Append(1, 3) // B follows D
	follows.Append(2, 3) // C follows D
	likes = store.NewTable("VP:likes", "s", "o")
	likes.Append(0, 4) // A likes I1
	likes.Append(0, 5) // A likes I2
	likes.Append(2, 5) // C likes I2
	return follows, likes
}

func TestScanProjectsAndFilters(t *testing.T) {
	c := NewCluster(4)
	follows, _ := g1VP()
	rel := mustScan(c.exec(), follows, ScanSpec{Projs: []ScanProjection{{Col: "s", As: "x"}, {Col: "o", As: "y"}}})
	if !reflect.DeepEqual(rel.Schema, []string{"x", "y"}) {
		t.Fatalf("schema = %v", rel.Schema)
	}
	rowsEqual(t, rel, []Row{{0, 1}, {1, 2}, {1, 3}, {2, 3}})

	// Bound subject: (B follows ?y).
	rel = mustScan(c.exec(), follows, ScanSpec{Projs: []ScanProjection{{Col: "o", As: "y"}}, Conds: []ScanCondition{{Col: "s", Value: 1}}})
	rowsEqual(t, rel, []Row{{2}, {3}})
	if c.Metrics.RowsScanned.Load() != 8 {
		t.Errorf("RowsScanned = %d, want 8", c.Metrics.RowsScanned.Load())
	}
}

func TestScanRepeatedVariable(t *testing.T) {
	// Pattern ?x follows ?x matches only self-loops.
	c := NewCluster(2)
	tbl := store.NewTable("t", "s", "o")
	tbl.Append(1, 1)
	tbl.Append(1, 2)
	tbl.Append(3, 3)
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{Col: "s", As: "x"}, {Col: "o", As: "x"}}})
	if !reflect.DeepEqual(rel.Schema, []string{"x"}) {
		t.Fatalf("schema = %v", rel.Schema)
	}
	rowsEqual(t, rel, []Row{{1}, {3}})
}

func TestJoinPaperExampleQ1(t *testing.T) {
	// Query Q1: ?x likes ?w . ?x follows ?y . ?y follows ?z . ?z likes ?w
	// Expected single result: x=A(0) y=B(1) z=C(2) w=I2(5).
	c := NewCluster(3)
	x := c.exec()
	follows, likes := g1VP()
	tp1 := mustScan(x, likes, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "w"}}})
	tp2 := mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}})
	tp3 := mustScan(x, follows, ScanSpec{Projs: []ScanProjection{{"s", "y"}, {"o", "z"}}})
	tp4 := mustScan(x, likes, ScanSpec{Projs: []ScanProjection{{"s", "z"}, {"o", "w"}}})
	res := x.JoinWith(x.JoinWith(x.JoinWith(tp1, tp2, StrategyShuffle), tp3, StrategyShuffle), tp4, StrategyShuffle)
	if res.NumRows() != 1 {
		t.Fatalf("Q1 returned %d rows: %v", res.NumRows(), res.Rows())
	}
	row := res.Rows()[0]
	get := func(v string) dict.ID { return row[res.ColIndex(v)] }
	if get("x") != 0 || get("y") != 1 || get("z") != 2 || get("w") != 5 {
		t.Errorf("Q1 binding = x=%d y=%d z=%d w=%d", get("x"), get("y"), get("z"), get("w"))
	}
}

func TestJoinMultiColumn(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}, {1, 3}, {4, 5}})
	b := c.exec().FromRows([]string{"x", "y", "z"}, []Row{{1, 2, 9}, {1, 7, 8}, {4, 5, 6}})
	res := c.exec().JoinWith(a, b, StrategyShuffle)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, 2, 9}, {4, 5, 6}})
}

func TestJoinEmptySide(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x"}, nil)
	b := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}})
	if res := c.exec().JoinWith(a, b, StrategyShuffle); res.NumRows() != 0 {
		t.Errorf("join with empty side returned %d rows", res.NumRows())
	}
}

func TestCrossJoin(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}})
	b := c.exec().FromRows([]string{"y"}, []Row{{10}, {20}})
	res := c.exec().JoinWith(a, b, StrategyShuffle)
	if res.NumRows() != 4 {
		t.Fatalf("cross join rows = %d, want 4", res.NumRows())
	}
	if !reflect.DeepEqual(res.Schema, []string{"x", "y"}) {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestLeftJoinOptionalSemantics(t *testing.T) {
	c := NewCluster(2)
	people := c.exec().FromRows([]string{"p"}, []Row{{1}, {2}, {3}})
	emails := c.exec().FromRows([]string{"p", "e"}, []Row{{1, 100}, {3, 300}})
	res := c.exec().LeftJoinWith(people, emails, nil, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, 100}, {2, Null}, {3, 300}})
}

func TestLeftJoinWithPredicate(t *testing.T) {
	c := NewCluster(2)
	people := c.exec().FromRows([]string{"p"}, []Row{{1}, {2}})
	emails := c.exec().FromRows([]string{"p", "e"}, []Row{{1, 100}, {2, 200}})
	// Keep only e=100 inside the OPTIONAL: row 2 must survive padded.
	res := c.exec().LeftJoinWith(people, emails, func(r Row) bool { return r[1] == 100 }, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, 100}, {2, Null}})
}

func TestUnionAlignsSchemas(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}})
	b := c.exec().FromRows([]string{"y", "z"}, []Row{{5, 6}})
	res := c.exec().Union(a, b)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, 2, Null}, {Null, 5, 6}})
}

func TestDistinct(t *testing.T) {
	c := NewCluster(4)
	r := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}, {1, 2}, {3, 4}, {1, 2}})
	res := c.exec().Distinct(r)
	rowsEqual(t, res, []Row{{1, 2}, {3, 4}})
}

func TestDistinctEmptySchema(t *testing.T) {
	c := NewCluster(2)
	r := c.exec().FromRows(nil, []Row{{}, {}})
	if res := c.exec().Distinct(r); res.NumRows() != 1 {
		t.Errorf("Distinct on zero-column rows = %d", res.NumRows())
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	c := NewCluster(3)
	r := c.exec().FromRows([]string{"x"}, []Row{{5}, {1}, {4}, {2}, {3}})
	sorted := c.exec().OrderBy(r, ascCols(0), idKey)
	got := sorted.Rows()
	for i := 1; i < len(got); i++ {
		if got[i-1][0] > got[i][0] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	lim := c.exec().Limit(sorted, 1, 2)
	rowsEqual(t, lim, []Row{{2}, {3}})
	all := c.exec().Limit(sorted, 0, -1)
	if all.NumRows() != 5 {
		t.Errorf("Limit(-1) = %d rows", all.NumRows())
	}
	over := c.exec().Limit(sorted, 99, 2)
	if over.NumRows() != 0 {
		t.Errorf("Limit past end = %d rows", over.NumRows())
	}
}

func TestFilter(t *testing.T) {
	c := NewCluster(2)
	r := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}, {3}})
	res := c.exec().Filter(r, func(row Row) bool { return row[0] >= 2 })
	rowsEqual(t, res, []Row{{2}, {3}})
}

func TestProjectMissingColumnIsNull(t *testing.T) {
	c := NewCluster(2)
	r := c.exec().FromRows([]string{"x"}, []Row{{1}})
	res := c.exec().Project(r, []string{"x", "nope"})
	rowsEqual(t, res, []Row{{1, Null}})
}

func TestShuffleSkippedWhenCoPartitioned(t *testing.T) {
	c := NewCluster(4)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}, {2, 3}, {3, 4}, {4, 5}})
	b := c.exec().FromRows([]string{"x", "z"}, []Row{{1, 9}, {2, 8}})
	first := c.exec().JoinWith(a, b, StrategyShuffle) // shuffles both sides by x
	afterFirst := c.Metrics.RowsShuffled.Load()
	cpart := c.exec().FromRows([]string{"x", "w"}, []Row{{1, 7}})
	// Joining the (already x-partitioned) result again shuffles only the
	// new small side plus zero rows for the co-partitioned side.
	_ = c.exec().JoinWith(first, cpart, StrategyShuffle)
	delta := c.Metrics.RowsShuffled.Load() - afterFirst
	if delta != 1 {
		t.Errorf("second join shuffled %d rows, want 1 (co-partitioning not exploited)", delta)
	}
}

func TestMetricsSnapshotSub(t *testing.T) {
	c := NewCluster(2)
	before := c.Metrics.Snapshot()
	r := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}})
	_ = c.exec().JoinWith(r, c.exec().FromRows([]string{"x"}, []Row{{1}}), StrategyShuffle)
	delta := c.Metrics.Snapshot().Sub(before)
	if delta.RowsShuffled == 0 {
		t.Error("expected shuffled rows in delta")
	}
	c.Metrics.Reset()
	if c.Metrics.Snapshot().RowsShuffled != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestJoinCommutative(t *testing.T) {
	// Natural join row multisets must be order-insensitive (schemas differ
	// in column order, so compare per-variable bindings).
	f := func(av, bv []uint8) bool {
		c := NewCluster(3)
		var arows, brows []Row
		for _, v := range av {
			arows = append(arows, Row{dict.ID(v % 8), dict.ID(v / 8)})
		}
		for _, v := range bv {
			brows = append(brows, Row{dict.ID(v % 8), dict.ID(v / 8 % 8)})
		}
		a := c.exec().FromRows([]string{"x", "y"}, arows)
		b := c.exec().FromRows([]string{"x", "z"}, brows)
		ab := c.exec().JoinWith(a, b, StrategyShuffle)
		ba := c.exec().JoinWith(b, a, StrategyShuffle)
		// Collect (x,y,z) triples from both.
		collect := func(r *Relation) []Row {
			xi, yi, zi := r.ColIndex("x"), r.ColIndex("y"), r.ColIndex("z")
			rows := make([]Row, 0, r.NumRows())
			for _, row := range r.Rows() {
				rows = append(rows, Row{row[xi], row[yi], row[zi]})
			}
			sort.Slice(rows, func(i, j int) bool {
				for k := 0; k < 3; k++ {
					if rows[i][k] != rows[j][k] {
						return rows[i][k] < rows[j][k]
					}
				}
				return false
			})
			return rows
		}
		return reflect.DeepEqual(collect(ab), collect(ba))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLeftJoinNoSharedColumns(t *testing.T) {
	c := NewCluster(2)
	left := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}})
	// Non-empty right: OPTIONAL cross pairs everything.
	right := c.exec().FromRows([]string{"y"}, []Row{{9}})
	res := c.exec().LeftJoinWith(left, right, nil, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, 9}, {2, 9}})
	// Empty right: left rows survive padded with Null.
	empty := c.exec().FromRows([]string{"y"}, nil)
	res = c.exec().LeftJoinWith(left, empty, nil, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, Null}, {2, Null}})
	// Predicate filtering all matches away also pads.
	res = c.exec().LeftJoinWith(left, right, func(Row) bool { return false }, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, Null}, {2, Null}})
}

// TestLeftJoinCrossPadsPerRow pins SPARQL OPTIONAL semantics on the
// no-shared-columns path: padding is decided per left row, so a row whose
// every pairing fails the filter survives padded even when other left rows
// matched (the old all-or-nothing fallback dropped it).
func TestLeftJoinCrossPadsPerRow(t *testing.T) {
	c := NewCluster(2)
	left := c.exec().FromRows([]string{"x"}, []Row{{1}, {2}})
	right := c.exec().FromRows([]string{"y"}, []Row{{9}, {8}})
	// Only the pairing (x=1, y=9) passes the OPTIONAL filter: row x=2 must
	// survive Null-padded, not disappear.
	res := c.exec().LeftJoinWith(left, right, func(r Row) bool { return r[0] == 1 && r[1] == 9 }, StrategyShuffle)
	rowsEqual(t, res, []Row{{1, 9}, {2, Null}})
}

func TestClusterDefaults(t *testing.T) {
	c := NewCluster(0)
	if c.Partitions() <= 0 {
		t.Errorf("Partitions = %d", c.Partitions())
	}
	c2 := NewCluster(5)
	if c2.Partitions() != 5 {
		t.Errorf("Partitions = %d, want 5", c2.Partitions())
	}
}

func TestUnionSameSchemaFastPath(t *testing.T) {
	c := NewCluster(2)
	a := c.exec().FromRows([]string{"x", "y"}, []Row{{1, 2}})
	b := c.exec().FromRows([]string{"x", "y"}, []Row{{3, 4}})
	res := c.exec().Union(a, b)
	rowsEqual(t, res, []Row{{1, 2}, {3, 4}})
}
