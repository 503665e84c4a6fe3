package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/dict"
)

// relOfRows builds a test relation over nParts partitions.
func relOfRows(c *Cluster, schema []string, rows []Row) *Relation {
	return c.exec().FromRows(schema, rows)
}

func TestLimitEdgeCases(t *testing.T) {
	c := NewCluster(3)
	rows := []Row{{0, 10}, {1, 11}, {2, 12}, {3, 13}, {4, 14}}
	r := relOfRows(c, []string{"a", "b"}, rows)

	cases := []struct {
		name      string
		offset, n int
		want      []Row
	}{
		{"plain", 1, 2, []Row{{1, 11}, {2, 12}}},
		{"offset beyond rows", 10, 3, nil},
		{"offset at boundary", 5, 3, nil},
		{"limit zero", 0, 0, nil},
		{"limit zero with offset", 2, 0, nil},
		{"negative offset", -7, 2, []Row{{0, 10}, {1, 11}}},
		{"no limit", 0, -1, rows},
		{"offset+limit overflow", 2, int(^uint(0) >> 1), []Row{{2, 12}, {3, 13}, {4, 14}}},
		{"offset overflow", int(^uint(0) >> 1), 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := c.exec().Limit(r, tc.offset, tc.n)
			if !reflect.DeepEqual(got.Schema, r.Schema) {
				t.Fatalf("schema = %v, want %v", got.Schema, r.Schema)
			}
			g := got.Rows()
			if len(g) != len(tc.want) {
				t.Fatalf("got %d rows %v, want %v", len(g), g, tc.want)
			}
			for i := range tc.want {
				if !reflect.DeepEqual(g[i], tc.want[i]) {
					t.Fatalf("row %d = %v, want %v", i, g[i], tc.want[i])
				}
			}
		})
	}
}

func TestStreamBatchesCoverAllRows(t *testing.T) {
	c := NewCluster(4)
	var rows []Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, Row{dict.ID(i), dict.ID(i * 2)})
	}
	r := relOfRows(c, []string{"a", "b"}, rows)
	x := c.NewExec()

	for _, batch := range []int{0, 1, 7, 1024, 100000} {
		it := r.Batches(x, batch)
		want := batch
		if want <= 0 {
			want = cancelBatch
		}
		var got []Row
		for b, ok := it.Next(); ok; b, ok = it.Next() {
			if b.Len() == 0 || b.Len() > want {
				t.Fatalf("batch=%d: block of %d rows", batch, b.Len())
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Row(i))
			}
		}
		if len(got) != len(rows) {
			t.Fatalf("batch=%d: got %d rows, want %d", batch, len(got), len(rows))
		}
		// Partition order is deterministic for a fixed cluster, so the
		// streamed rows must equal the materialized ones in order.
		mat := r.Rows()
		for i := range mat {
			if !reflect.DeepEqual(got[i], mat[i]) {
				t.Fatalf("batch=%d: row %d = %v, want %v", batch, i, got[i], mat[i])
			}
		}
	}
}

func TestStreamBatchesShareStorage(t *testing.T) {
	// Batches must be views, not copies: the first batch of a lone-partition
	// relation aliases the partition's column storage.
	c := NewCluster(1)
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{dict.ID(i)})
	}
	r := relOfRows(c, []string{"a"}, rows)
	x := c.NewExec()
	b, ok := r.Batches(x, 10).Next()
	if !ok || b.Len() != 10 {
		t.Fatalf("first batch: ok=%v len=%d", ok, b.Len())
	}
	if &b.Col(0)[0] != &r.Parts[0].Col(0)[0] {
		t.Fatal("batch copied column storage instead of aliasing it")
	}
}

func TestStreamBatchesStopOnCancel(t *testing.T) {
	c := NewCluster(2)
	var rows []Row
	for i := 0; i < 4096; i++ {
		rows = append(rows, Row{dict.ID(i)})
	}
	r := relOfRows(c, []string{"a"}, rows)
	ctx, cancel := context.WithCancel(context.Background())
	x := c.NewExecContext(ctx)
	it := r.Batches(x, 512)
	if _, ok := it.Next(); !ok {
		t.Fatal("first batch should arrive before cancellation")
	}
	cancel()
	if b, ok := it.Next(); ok {
		t.Fatalf("Next after cancel returned a %d-row batch", b.Len())
	}
	if x.Err() == nil {
		t.Fatal("Err() should report cancellation")
	}
}

// ascCols lists ascending sort keys over the given columns.
func ascCols(cols ...int) []SortCol {
	out := make([]SortCol, len(cols))
	for i, c := range cols {
		out[i] = SortCol{Col: c}
	}
	return out
}

// idKey orders IDs by their numeric value: the tests' stand-in for a
// dictionary.
func idKey(id dict.ID) SortKey { return NumericKey(float64(id)) }

func TestTopKBoundsRowsSorted(t *testing.T) {
	// The acceptance assertion for top-k pushdown: RowsSorted grows by the
	// heap bound, not the input size, while a full OrderBy meters every row.
	c := NewCluster(2)
	var rows []Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, Row{dict.ID(i % 977)})
	}
	r := relOfRows(c, []string{"a"}, rows)
	x := c.NewExec()
	x.TopK(r, 25, ascCols(0), idKey)
	if got := x.MetricsSnapshot().RowsSorted; got != 25 {
		t.Fatalf("TopK(25) metered RowsSorted=%d, want 25", got)
	}

	x2 := c.NewExec()
	x2.OrderBy(r, ascCols(0), idKey)
	if got := x2.MetricsSnapshot().RowsSorted; got != 10000 {
		t.Fatalf("OrderBy metered RowsSorted=%d, want 10000", got)
	}
}

func TestTopKZeroAndOversized(t *testing.T) {
	c := NewCluster(2)
	r := relOfRows(c, []string{"a"}, []Row{{3}, {1}, {2}})
	x := c.NewExec()
	if got := x.TopK(r, 0, ascCols(0), idKey); got.NumRows() != 0 || len(got.Schema) != 1 {
		t.Fatalf("TopK(0) = %d rows, schema %v", got.NumRows(), got.Schema)
	}
	got := x.TopK(r, 100, ascCols(0), idKey).Rows()
	want := []Row{{1}, {2}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(100) = %v, want %v", got, want)
	}
}

func TestMemBudgetPeakAccounting(t *testing.T) {
	c := NewCluster(2)
	var rows []Row
	for i := 0; i < 2048; i++ {
		rows = append(rows, Row{dict.ID(i), dict.ID(i % 13)})
	}
	x := c.NewExec()
	r := x.FromRows([]string{"a", "b"}, rows)
	if got, min := x.PeakMemBytes(), int64(2048*2*idBytes); got < min {
		t.Fatalf("PeakMemBytes = %d after materializing %d bytes", got, min)
	}
	before := x.PeakMemBytes()
	x.Filter(r, func(row Row) bool { return row[1] == 0 })
	if got := x.PeakMemBytes(); got <= before {
		t.Fatalf("PeakMemBytes = %d, did not grow past %d after Filter", got, before)
	}
}

func TestSpillJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		c := NewCluster(1 + rng.Intn(4))
		nl, nr := rng.Intn(4000), rng.Intn(4000)
		left := make([]Row, nl)
		for i := range left {
			left[i] = Row{dict.ID(rng.Intn(200)), dict.ID(rng.Intn(50))}
		}
		right := make([]Row, nr)
		for i := range right {
			right[i] = Row{dict.ID(rng.Intn(200)), dict.ID(rng.Intn(50))}
		}

		// Unbounded execution: in-memory hash join.
		xu := c.NewExec()
		lu := xu.FromRows([]string{"k", "l"}, left)
		ru := xu.FromRows([]string{"k", "r"}, right)
		want := sortedRows(xu.JoinWith(lu, ru, StrategyShuffle))

		// Budgeted execution: 1 byte forces every build to spill.
		xb := c.NewExecContext(context.Background())
		xb.SetMemBudget(1, t.TempDir())
		lb := xb.FromRows([]string{"k", "l"}, left)
		rb := xb.FromRows([]string{"k", "r"}, right)
		got := sortedRows(xb.JoinWith(lb, rb, StrategyShuffle))

		if len(got) != len(want) {
			t.Fatalf("trial %d: spilled join %d rows, want %d (nl=%d nr=%d)",
				trial, len(got), len(want), nl, nr)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if nl > 0 && nr > 0 && xb.MetricsSnapshot().BytesSpilled == 0 {
			t.Fatalf("trial %d: join under 1-byte budget spilled nothing", trial)
		}
	}
}

func TestSpillJoinMultiColumnKeys(t *testing.T) {
	// Shared columns beyond the hash key must survive the spill path's
	// composite-key sort; build rows agreeing on k but not k2 must not join.
	c := NewCluster(2)
	left := []Row{{1, 1, 10}, {1, 2, 11}, {2, 1, 12}}
	right := []Row{{1, 1, 20}, {1, 9, 21}, {2, 1, 22}, {2, 1, 23}}

	xu := c.NewExec()
	want := sortedRows(xu.JoinWith(
		xu.FromRows([]string{"k", "k2", "l"}, left),
		xu.FromRows([]string{"k", "k2", "r"}, right), StrategyShuffle))

	xb := c.NewExec()
	xb.SetMemBudget(1, t.TempDir())
	got := sortedRows(xb.JoinWith(
		xb.FromRows([]string{"k", "k2", "l"}, left),
		xb.FromRows([]string{"k", "k2", "r"}, right), StrategyShuffle))

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spilled multi-key join = %v, want %v", got, want)
	}
}

func TestSpillBroadcastJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		c := NewCluster(1 + rng.Intn(4))
		nl, nr := 1+rng.Intn(2000), 1+rng.Intn(2000)
		left := make([]Row, nl)
		for i := range left {
			left[i] = Row{dict.ID(rng.Intn(150)), dict.ID(rng.Intn(40))}
		}
		right := make([]Row, nr)
		for i := range right {
			right[i] = Row{dict.ID(rng.Intn(150)), dict.ID(rng.Intn(40))}
		}

		xu := c.NewExec()
		want := sortedRows(xu.JoinWith(
			xu.FromRows([]string{"k", "l"}, left),
			xu.FromRows([]string{"k", "r"}, right), StrategyBroadcast))

		xb := c.NewExec()
		xb.SetMemBudget(1, t.TempDir())
		got := sortedRows(xb.JoinWith(
			xb.FromRows([]string{"k", "l"}, left),
			xb.FromRows([]string{"k", "r"}, right), StrategyBroadcast))

		if len(got) != len(want) {
			t.Fatalf("trial %d: spilled broadcast join %d rows, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
		if xb.MetricsSnapshot().BytesSpilled == 0 {
			t.Fatalf("trial %d: broadcast under 1-byte budget spilled nothing", trial)
		}
	}
}

func TestSpillJoinManyRuns(t *testing.T) {
	// A build side larger than spillRunRows produces several runs; the
	// k-way merge must still see every entry exactly once.
	c := NewCluster(1)
	n := spillRunRows*2 + 57
	left := make([]Row, n)
	for i := range left {
		left[i] = Row{dict.ID(i % 4096), dict.ID(i)}
	}
	right := []Row{{17, 100000}, {4000, 100001}}

	xu := c.NewExec()
	want := sortedRows(xu.JoinWith(
		xu.FromRows([]string{"k", "l"}, left),
		xu.FromRows([]string{"k", "r"}, right), StrategyShuffle))

	xb := c.NewExec()
	xb.SetMemBudget(1, t.TempDir())
	got := sortedRows(xb.JoinWith(
		xb.FromRows([]string{"k", "l"}, left),
		xb.FromRows([]string{"k", "r"}, right), StrategyShuffle))

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-run spilled join: got %d rows, want %d", len(got), len(want))
	}
	if xb.MetricsSnapshot().BytesSpilled == 0 {
		t.Fatal("BytesSpilled = 0 for a forced spill")
	}
}
