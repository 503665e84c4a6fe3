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
	rel := c.Scan(follows,
		[]ScanProjection{{Col: "s", As: "x"}, {Col: "o", As: "y"}},
		nil)
	if !reflect.DeepEqual(rel.Schema, []string{"x", "y"}) {
		t.Fatalf("schema = %v", rel.Schema)
	}
	rowsEqual(t, rel, []Row{{0, 1}, {1, 2}, {1, 3}, {2, 3}})

	// Bound subject: (B follows ?y).
	rel = c.Scan(follows, []ScanProjection{{Col: "o", As: "y"}},
		[]ScanCondition{{Col: "s", Value: 1}})
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
	rel := c.Scan(tbl,
		[]ScanProjection{{Col: "s", As: "x"}, {Col: "o", As: "x"}}, nil)
	if !reflect.DeepEqual(rel.Schema, []string{"x"}) {
		t.Fatalf("schema = %v", rel.Schema)
	}
	rowsEqual(t, rel, []Row{{1}, {3}})
}

func TestJoinPaperExampleQ1(t *testing.T) {
	// Query Q1: ?x likes ?w . ?x follows ?y . ?y follows ?z . ?z likes ?w
	// Expected single result: x=A(0) y=B(1) z=C(2) w=I2(5).
	c := NewCluster(3)
	follows, likes := g1VP()
	tp1 := c.Scan(likes, []ScanProjection{{"s", "x"}, {"o", "w"}}, nil)
	tp2 := c.Scan(follows, []ScanProjection{{"s", "x"}, {"o", "y"}}, nil)
	tp3 := c.Scan(follows, []ScanProjection{{"s", "y"}, {"o", "z"}}, nil)
	tp4 := c.Scan(likes, []ScanProjection{{"s", "z"}, {"o", "w"}}, nil)
	res := c.Join(c.Join(c.Join(tp1, tp2), tp3), tp4)
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
	a := c.FromRows([]string{"x", "y"}, []Row{{1, 2}, {1, 3}, {4, 5}})
	b := c.FromRows([]string{"x", "y", "z"}, []Row{{1, 2, 9}, {1, 7, 8}, {4, 5, 6}})
	res := c.Join(a, b)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, 2, 9}, {4, 5, 6}})
}

func TestJoinEmptySide(t *testing.T) {
	c := NewCluster(2)
	a := c.FromRows([]string{"x"}, nil)
	b := c.FromRows([]string{"x", "y"}, []Row{{1, 2}})
	if res := c.Join(a, b); res.NumRows() != 0 {
		t.Errorf("join with empty side returned %d rows", res.NumRows())
	}
}

func TestCrossJoin(t *testing.T) {
	c := NewCluster(2)
	a := c.FromRows([]string{"x"}, []Row{{1}, {2}})
	b := c.FromRows([]string{"y"}, []Row{{10}, {20}})
	res := c.Join(a, b)
	if res.NumRows() != 4 {
		t.Fatalf("cross join rows = %d, want 4", res.NumRows())
	}
	if !reflect.DeepEqual(res.Schema, []string{"x", "y"}) {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestSemiJoin(t *testing.T) {
	c := NewCluster(3)
	follows, likes := g1VP()
	// ExtVP_OS follows|likes: rows of follows whose o is a subject of likes.
	f := c.Scan(follows, []ScanProjection{{"s", "s"}, {"o", "j"}}, nil)
	l := c.Scan(likes, []ScanProjection{{"s", "j"}}, nil)
	res := c.SemiJoin(f, l)
	// From the paper (Fig 8): only (B, C) survives.
	rowsEqual(t, res, []Row{{1, 2}})
}

func TestSemiJoinNoSharedColumns(t *testing.T) {
	c := NewCluster(2)
	a := c.FromRows([]string{"x"}, []Row{{1}, {2}})
	nonEmpty := c.FromRows([]string{"y"}, []Row{{9}})
	empty := c.FromRows([]string{"y"}, nil)
	if res := c.SemiJoin(a, nonEmpty); res.NumRows() != 2 {
		t.Errorf("semi vs non-empty = %d rows", res.NumRows())
	}
	if res := c.SemiJoin(a, empty); res.NumRows() != 0 {
		t.Errorf("semi vs empty = %d rows", res.NumRows())
	}
}

func TestLeftJoinOptionalSemantics(t *testing.T) {
	c := NewCluster(2)
	people := c.FromRows([]string{"p"}, []Row{{1}, {2}, {3}})
	emails := c.FromRows([]string{"p", "e"}, []Row{{1, 100}, {3, 300}})
	res := c.LeftJoin(people, emails, nil)
	rowsEqual(t, res, []Row{{1, 100}, {2, Null}, {3, 300}})
}

func TestLeftJoinWithPredicate(t *testing.T) {
	c := NewCluster(2)
	people := c.FromRows([]string{"p"}, []Row{{1}, {2}})
	emails := c.FromRows([]string{"p", "e"}, []Row{{1, 100}, {2, 200}})
	// Keep only e=100 inside the OPTIONAL: row 2 must survive padded.
	res := c.LeftJoin(people, emails, func(r Row) bool { return r[1] == 100 })
	rowsEqual(t, res, []Row{{1, 100}, {2, Null}})
}

func TestUnionAlignsSchemas(t *testing.T) {
	c := NewCluster(2)
	a := c.FromRows([]string{"x", "y"}, []Row{{1, 2}})
	b := c.FromRows([]string{"y", "z"}, []Row{{5, 6}})
	res := c.Union(a, b)
	if !reflect.DeepEqual(res.Schema, []string{"x", "y", "z"}) {
		t.Fatalf("schema = %v", res.Schema)
	}
	rowsEqual(t, res, []Row{{1, 2, Null}, {Null, 5, 6}})
}

func TestDistinct(t *testing.T) {
	c := NewCluster(4)
	r := c.FromRows([]string{"x", "y"}, []Row{{1, 2}, {1, 2}, {3, 4}, {1, 2}})
	res := c.Distinct(r)
	rowsEqual(t, res, []Row{{1, 2}, {3, 4}})
}

func TestDistinctEmptySchema(t *testing.T) {
	c := NewCluster(2)
	r := c.FromRows(nil, []Row{{}, {}})
	if res := c.Distinct(r); res.NumRows() != 1 {
		t.Errorf("Distinct on zero-column rows = %d", res.NumRows())
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	c := NewCluster(3)
	r := c.FromRows([]string{"x"}, []Row{{5}, {1}, {4}, {2}, {3}})
	sorted := c.OrderBy(r, ascCols(0), idKey)
	got := sorted.Rows()
	for i := 1; i < len(got); i++ {
		if got[i-1][0] > got[i][0] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	lim := c.Limit(sorted, 1, 2)
	rowsEqual(t, lim, []Row{{2}, {3}})
	all := c.Limit(sorted, 0, -1)
	if all.NumRows() != 5 {
		t.Errorf("Limit(-1) = %d rows", all.NumRows())
	}
	over := c.Limit(sorted, 99, 2)
	if over.NumRows() != 0 {
		t.Errorf("Limit past end = %d rows", over.NumRows())
	}
}

func TestFilter(t *testing.T) {
	c := NewCluster(2)
	r := c.FromRows([]string{"x"}, []Row{{1}, {2}, {3}})
	res := c.Filter(r, func(row Row) bool { return row[0] >= 2 })
	rowsEqual(t, res, []Row{{2}, {3}})
}

func TestProjectMissingColumnIsNull(t *testing.T) {
	c := NewCluster(2)
	r := c.FromRows([]string{"x"}, []Row{{1}})
	res := c.Project(r, []string{"x", "nope"})
	rowsEqual(t, res, []Row{{1, Null}})
}

func TestShuffleSkippedWhenCoPartitioned(t *testing.T) {
	c := NewCluster(4)
	a := c.FromRows([]string{"x", "y"}, []Row{{1, 2}, {2, 3}, {3, 4}, {4, 5}})
	b := c.FromRows([]string{"x", "z"}, []Row{{1, 9}, {2, 8}})
	first := c.Join(a, b) // shuffles both sides by x
	afterFirst := c.Metrics.RowsShuffled.Load()
	cpart := c.FromRows([]string{"x", "w"}, []Row{{1, 7}})
	// Joining the (already x-partitioned) result again shuffles only the
	// new small side plus zero rows for the co-partitioned side.
	_ = c.Join(first, cpart)
	delta := c.Metrics.RowsShuffled.Load() - afterFirst
	if delta != 1 {
		t.Errorf("second join shuffled %d rows, want 1 (co-partitioning not exploited)", delta)
	}
}

func TestMetricsSnapshotSub(t *testing.T) {
	c := NewCluster(2)
	before := c.Metrics.Snapshot()
	r := c.FromRows([]string{"x"}, []Row{{1}, {2}})
	_ = c.Join(r, c.FromRows([]string{"x"}, []Row{{1}}))
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
		a := c.FromRows([]string{"x", "y"}, arows)
		b := c.FromRows([]string{"x", "z"}, brows)
		ab := c.Join(a, b)
		ba := c.Join(b, a)
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

func TestSemiJoinSubsetProperty(t *testing.T) {
	// Semi-join output must always be a subset of the left input, and
	// joining the reductions must equal the original join (paper Sec. 5.2).
	f := func(av, bv []uint8) bool {
		c := NewCluster(2)
		var arows, brows []Row
		for _, v := range av {
			arows = append(arows, Row{dict.ID(v % 16), dict.ID(v)})
		}
		for _, v := range bv {
			brows = append(brows, Row{dict.ID(v % 16), dict.ID(v)})
		}
		a := c.FromRows([]string{"j", "a"}, arows)
		b := c.FromRows([]string{"j", "b"}, brows)
		ra := c.SemiJoin(a, b)
		rb := c.SemiJoin(b, a)
		if ra.NumRows() > a.NumRows() || rb.NumRows() > b.NumRows() {
			return false
		}
		full := sortedRows(c.Join(a, b))
		reduced := sortedRows(c.Join(ra, rb))
		return reflect.DeepEqual(full, reduced)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLeftJoinNoSharedColumns(t *testing.T) {
	c := NewCluster(2)
	left := c.FromRows([]string{"x"}, []Row{{1}, {2}})
	// Non-empty right: OPTIONAL cross pairs everything.
	right := c.FromRows([]string{"y"}, []Row{{9}})
	res := c.LeftJoin(left, right, nil)
	rowsEqual(t, res, []Row{{1, 9}, {2, 9}})
	// Empty right: left rows survive padded with Null.
	empty := c.FromRows([]string{"y"}, nil)
	res = c.LeftJoin(left, empty, nil)
	rowsEqual(t, res, []Row{{1, Null}, {2, Null}})
	// Predicate filtering all matches away also pads.
	res = c.LeftJoin(left, right, func(Row) bool { return false })
	rowsEqual(t, res, []Row{{1, Null}, {2, Null}})
}

// TestLeftJoinCrossPadsPerRow pins SPARQL OPTIONAL semantics on the
// no-shared-columns path: padding is decided per left row, so a row whose
// every pairing fails the filter survives padded even when other left rows
// matched (the old all-or-nothing fallback dropped it).
func TestLeftJoinCrossPadsPerRow(t *testing.T) {
	c := NewCluster(2)
	left := c.FromRows([]string{"x"}, []Row{{1}, {2}})
	right := c.FromRows([]string{"y"}, []Row{{9}, {8}})
	// Only the pairing (x=1, y=9) passes the OPTIONAL filter: row x=2 must
	// survive Null-padded, not disappear.
	res := c.LeftJoin(left, right, func(r Row) bool { return r[0] == 1 && r[1] == 9 })
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
	a := c.FromRows([]string{"x", "y"}, []Row{{1, 2}})
	b := c.FromRows([]string{"x", "y"}, []Row{{3, 4}})
	res := c.Union(a, b)
	rowsEqual(t, res, []Row{{1, 2}, {3, 4}})
}
