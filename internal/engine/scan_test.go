package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/store"
)

// refScan is the row-at-a-time reference the vectorized scan must match: it
// evaluates every condition, the bit-vector pre-selection, the
// equal-variable checks and the late predicate per row, in row order.
func refScan(t *store.Table, spec ScanSpec) []Row {
	type proj struct {
		src int
	}
	var schema []string
	var srcs []proj
	var equal [][2]int
	seen := map[string]int{}
	for _, pr := range spec.Projs {
		src := t.ColIndex(pr.Col)
		if prev, ok := seen[pr.As]; ok {
			equal = append(equal, [2]int{srcs[prev].src, src})
			continue
		}
		seen[pr.As] = len(srcs)
		schema = append(schema, pr.As)
		srcs = append(srcs, proj{src: src})
	}
	var out []Row
rows:
	for i := 0; i < t.NumRows(); i++ {
		if spec.Sel != nil && !spec.Sel.Get(i) {
			continue
		}
		for _, cd := range spec.Conds {
			if t.Col(cd.Col)[i] != cd.Value {
				continue rows
			}
		}
		for _, eq := range equal {
			if t.Data[eq[0]][i] != t.Data[eq[1]][i] {
				continue rows
			}
		}
		row := make(Row, len(srcs))
		for j, p := range srcs {
			row[j] = t.Data[p.src][i]
		}
		if spec.Pred != nil && !spec.Pred(row) {
			continue
		}
		out = append(out, row)
	}
	return out
}

func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func rowsMatch(t *testing.T, got *Relation, want []Row, desc string) {
	t.Helper()
	g := got.Rows()
	// Copy the views: sorting shares the blocks.
	gc := make([]Row, len(g))
	for i, r := range g {
		gc[i] = append(Row{}, r...)
	}
	sortRows(gc)
	wc := make([]Row, len(want))
	for i, r := range want {
		wc[i] = append(Row{}, r...)
	}
	sortRows(wc)
	if len(gc) != len(wc) {
		t.Fatalf("%s: got %d rows, want %d", desc, len(gc), len(wc))
	}
	for i := range gc {
		if !rowsEqualIDs(gc[i], wc[i]) {
			t.Fatalf("%s: row %d = %v, want %v", desc, i, gc[i], wc[i])
		}
	}
}

// randomTable builds a table of several cancellation batches, sorted by s
// with a skewed o column, finalized so the scan sees a sort column.
func randomTable(rng *rand.Rand, n int) *store.Table {
	return randomTableNDV(rng, n, n/4)
}

// randomTableNDV is randomTable with s drawn from ndv values: a small ndv
// gives long runs of one subject.
func randomTableNDV(rng *rand.Rand, n, ndv int) *store.Table {
	tbl := store.NewTable("t", "s", "o")
	ss := make([]dict.ID, n)
	for i := range ss {
		ss[i] = dict.ID(rng.Intn(ndv))
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	for i := 0; i < n; i++ {
		var o dict.ID
		switch rng.Intn(3) {
		case 0:
			o = ss[i] // correlates with s, so some rows satisfy ?x p ?x
		case 1:
			o = dict.ID(rng.Intn(8)) // dense band: many matches
		default:
			o = dict.ID(1000 + i) // locally increasing: at most one match
		}
		tbl.Append(ss[i], o)
	}
	tbl.Finalize()
	return tbl
}

// TestScanRandomizedEquivalence cross-checks the vectorized scan against the
// row-at-a-time reference on random sorted tables, over a grid of condition
// shapes: none, sort-column, other-column, both, with and without a
// bit-vector pre-selection, an equal-variable projection (?x p ?x) and a
// late predicate.
func TestScanRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 64 + rng.Intn(4*cancelBatch)
		tbl := randomTable(rng, n)
		c := NewCluster(1 + rng.Intn(8))

		var bits *bitvec.Bitset
		if trial%2 == 0 {
			bits = bitvec.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					bits.Set(i)
				}
			}
		}
		pick := func(col []dict.ID) dict.ID {
			if rng.Intn(4) == 0 {
				return dict.ID(1 << 30) // absent value: empty result
			}
			return col[rng.Intn(len(col))]
		}
		specs := []ScanSpec{
			{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}},
			{Projs: []ScanProjection{{"o", "y"}},
				Conds: []ScanCondition{{Col: "s", Value: pick(tbl.Data[0])}}},
			{Projs: []ScanProjection{{"s", "x"}},
				Conds: []ScanCondition{{Col: "o", Value: pick(tbl.Data[1])}}},
			{Projs: []ScanProjection{{"s", "x"}},
				Conds: []ScanCondition{
					{Col: "s", Value: pick(tbl.Data[0])},
					{Col: "o", Value: pick(tbl.Data[1])},
				}},
			// ?x p ?x: both positions project the same variable.
			{Projs: []ScanProjection{{"s", "x"}, {"o", "x"}}},
			{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}},
				Pred: func(r Row) bool { return r[1]%2 == 0 }},
		}
		for si, spec := range specs {
			spec.Sel = bits
			if bits != nil {
				spec.SelRows = bits.Count()
			}
			rel, st, err := c.exec().ScanTable(tbl, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := refScan(tbl, spec)
			desc := fmt.Sprintf("trial %d spec %d (n=%d parts=%d bits=%v)",
				trial, si, n, c.Partitions(), bits != nil)
			rowsMatch(t, rel, want, desc)
			if st.Pruned < 0 || st.Pruned > int64(n) {
				t.Fatalf("%s: pruned %d out of range", desc, st.Pruned)
			}
			// Pruned reports savings relative to the metered input: under a
			// bit-vector only selected rows count, so it never exceeds
			// Scanned.
			if st.Pruned > st.Scanned {
				t.Fatalf("%s: pruned %d > scanned %d", desc, st.Pruned, st.Scanned)
			}
		}
	}
}

// TestScanKeysEquivalence cross-checks the key-run scan against the range
// scan: ScanTable with Keys must return exactly the rows ScanTable without
// Keys returns whose sort-column value is a key. The grid covers constant
// conditions (on the sort column too), bit-vector pre-selections, ?x p ?x
// and a late predicate; key sets with absent keys, keys at both table ends,
// long duplicate runs and no keys at all; and 1, 3 and 8 partitions.
// Scanned must not change, and Scanned−Pruned must be the metered rows
// inside the key runs.
func TestScanKeysEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(4*cancelBatch)
		ndv := n / 4
		if trial%3 == 2 {
			ndv = 1 + rng.Intn(6) // long duplicate runs
		}
		tbl := randomTableNDV(rng, n, ndv)
		scol := tbl.Data[0]

		var bits *bitvec.Bitset
		selRows := 0
		if trial%2 == 0 {
			bits = bitvec.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					bits.Set(i)
				}
			}
			selRows = bits.Count()
		}

		// Keys: a random share of the present subjects, both table ends
		// now and then, and values absent from the table (inside the value
		// range and past its end).
		keys := []dict.ID{}
		if trial%7 != 6 {
			for v := 0; v < ndv+3; v++ {
				if rng.Intn(4) == 0 {
					keys = append(keys, dict.ID(v))
				}
			}
			if rng.Intn(2) == 0 {
				keys = append(keys, scol[0], scol[n-1])
			}
			keys = append(keys, dict.ID(ndv+10+rng.Intn(100)))
			slices.Sort(keys)
			keys = slices.Compact(keys)
		}
		inKeys := func(v dict.ID) bool {
			_, ok := slices.BinarySearch(keys, v)
			return ok
		}
		sConst := scol[rng.Intn(n)]
		specs := []ScanSpec{
			{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}},
			{Projs: []ScanProjection{{"s", "x"}},
				Conds: []ScanCondition{{Col: "o", Value: tbl.Data[1][rng.Intn(n)]}}},
			{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}},
				Conds: []ScanCondition{{Col: "s", Value: sConst}}},
			// ?x p ?x: both positions project the same variable.
			{Projs: []ScanProjection{{"s", "x"}, {"o", "x"}}},
			{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}},
				Pred: func(r Row) bool { return r[1]%2 == 0 }},
		}
		for si, spec := range specs {
			spec.Sel, spec.SelRows = bits, selRows
			// Metered rows inside the key runs.
			inRuns := int64(0)
			for i, v := range scol {
				if inKeys(v) && (bits == nil || bits.Get(i)) && (si != 2 || v == sConst) {
					inRuns++
				}
			}
			for _, parts := range []int{1, 3, 8} {
				c := NewCluster(parts)
				full, fst, err := c.exec().ScanTable(tbl, spec)
				if err != nil {
					t.Fatal(err)
				}
				var want []Row
				for _, r := range full.Rows() {
					if inKeys(r[0]) {
						want = append(want, r)
					}
				}
				keyed := spec
				keyed.Keys = keys
				rel, st, err := c.exec().ScanTable(tbl, keyed)
				if err != nil {
					t.Fatal(err)
				}
				desc := fmt.Sprintf("trial %d spec %d (n=%d ndv=%d keys=%d parts=%d bits=%v)",
					trial, si, n, ndv, len(keys), parts, bits != nil)
				rowsMatch(t, rel, want, desc)
				if st.Scanned != fst.Scanned {
					t.Fatalf("%s: scanned %d, %d without keys", desc, st.Scanned, fst.Scanned)
				}
				if got := st.Scanned - st.Pruned; got != inRuns {
					t.Fatalf("%s: scanned−pruned = %d, want %d rows in the key runs", desc, got, inRuns)
				}
			}
		}
	}

	// Keys name sort-column values, so a table without one cannot take them.
	unsorted := store.NewTable("u", "s", "o")
	unsorted.Append(2, 5)
	unsorted.Append(1, 9)
	unsorted.Append(3, 1)
	unsorted.Finalize()
	if _, _, err := NewCluster(1).exec().ScanTable(unsorted, ScanSpec{
		Projs: []ScanProjection{{"o", "y"}}, Keys: []dict.ID{1},
	}); err == nil {
		t.Error("keys on a table without a sort column: no error")
	}
}

// TestScanSortPruning asserts the sort-column binary search prunes without
// changing results, and that the pruned count is exact.
func TestScanSortPruning(t *testing.T) {
	tbl := store.NewTable("t", "s", "o")
	const n = 3072
	for i := 0; i < n; i++ {
		tbl.Append(dict.ID(i), dict.ID(i%7))
	}
	tbl.Finalize()
	if tbl.SortCol != 0 {
		t.Fatalf("SortCol = %d, want 0", tbl.SortCol)
	}
	x := NewCluster(4).exec()
	rel, st, err := x.ScanTable(tbl, ScanSpec{
		Projs: []ScanProjection{{"o", "y"}},
		Conds: []ScanCondition{{Col: "s", Value: 42}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", rel.NumRows())
	}
	if want := int64(n - 1); st.Pruned != want {
		t.Errorf("pruned = %d, want %d", st.Pruned, want)
	}
	if got := x.MetricsSnapshot().RowsPruned; got != st.Pruned {
		t.Errorf("metered pruned = %d, want %d", got, st.Pruned)
	}
}

// TestSplitRangeBalanced asserts the partition split covers [0, n) exactly
// with sizes differing by at most one — the fix for ceil-division chunking
// leaving trailing partitions systematically empty.
func TestSplitRangeBalanced(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 16, 100, 101, 1023} {
		for _, parts := range []int{1, 2, 3, 7, 8, 16} {
			prevHi := 0
			minSz, maxSz := n+1, -1
			for p := 0; p < parts; p++ {
				lo, hi := splitRange(n, parts, p)
				if lo != prevHi {
					t.Fatalf("n=%d parts=%d p=%d: lo=%d, want %d", n, parts, p, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d parts=%d p=%d: hi %d < lo %d", n, parts, p, hi, lo)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				prevHi = hi
			}
			if prevHi != n {
				t.Fatalf("n=%d parts=%d: covered %d rows", n, parts, prevHi)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d parts=%d: partition sizes range %d..%d", n, parts, minSz, maxSz)
			}
		}
	}
}

// TestFromRowsBalanced asserts FromRows spreads a small remainder across
// partitions instead of leaving trailing partitions empty.
func TestFromRowsBalanced(t *testing.T) {
	c := NewCluster(8)
	rows := make([]Row, 10) // ceil-division would give 2,2,2,2,2,0,0,0
	for i := range rows {
		rows[i] = Row{dict.ID(i)}
	}
	rel := c.exec().FromRows([]string{"x"}, rows)
	nonEmpty := 0
	for _, p := range rel.Parts {
		if p.Len() > 0 {
			nonEmpty++
		}
		if p.Len() > 2 {
			t.Errorf("partition holds %d rows, want <= 2", p.Len())
		}
	}
	if nonEmpty != 8 {
		t.Errorf("non-empty partitions = %d, want 8", nonEmpty)
	}
	if rel.NumRows() != 10 {
		t.Errorf("total rows = %d", rel.NumRows())
	}
}

// TestScanBalancedPartitions asserts an unconditional scan spreads rows over
// all partitions with sizes differing by at most one.
func TestScanBalancedPartitions(t *testing.T) {
	tbl := store.NewTable("t", "s", "o")
	for i := 0; i < 13; i++ {
		tbl.Append(dict.ID(i), dict.ID(i))
	}
	c := NewCluster(5)
	rel := mustScan(c.exec(), tbl, ScanSpec{Projs: []ScanProjection{{"s", "x"}, {"o", "y"}}})
	minSz, maxSz := 14, -1
	for _, p := range rel.Parts {
		sz := p.Len()
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Errorf("partition sizes range %d..%d, want balanced", minSz, maxSz)
	}
	if rel.NumRows() != 13 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}
