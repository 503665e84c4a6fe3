package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
)

// mixedKey is a stand-in dictionary whose IDs spread over both key classes
// with many distinct IDs sharing a key, so sorts see ties between different
// values as well as between repeats of one.
func mixedKey(id dict.ID) SortKey {
	if id%4 == 0 {
		return TextKey(fmt.Sprintf("t%d", id/4%7))
	}
	return NumericKey(float64(id%5) - 2)
}

// refCompare is the specification the operators are checked against,
// written without SortKey: unbound < numeric by value < text.
func refCompare(a, b dict.ID) int {
	class := func(id dict.ID) int {
		switch {
		case id == Null:
			return 0
		case id%4 != 0:
			return 1
		}
		return 2
	}
	if ca, cb := class(a), class(b); ca != cb {
		return ca - cb
	}
	switch class(a) {
	case 1:
		return int(a%5) - int(b%5)
	case 2:
		return int(a/4%7) - int(b/4%7)
	}
	return 0
}

// refSort sorts rows (listed in input order) stably under cols.
func refSort(rows []Row, cols []SortCol) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, sc := range cols {
			d := refCompare(out[i][sc.Col], out[j][sc.Col])
			if sc.Desc {
				d = -d
			}
			if d != 0 {
				return d < 0
			}
		}
		return false
	})
	return out
}

// firstDiff returns the first index at which a and b differ (the shorter
// length when one is a prefix of the other), or -1 when they are equal.
func firstDiff(a, b []Row) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// randomParts splits rows into a relation of 1-5 partitions at random cut
// points, leaving some partitions empty (zero-length block) or nil.
func randomParts(rng *rand.Rand, schema []string, rows []Row) *Relation {
	r := newRelation(schema, 1+rng.Intn(5))
	cuts := make([]int, len(r.Parts)+1)
	for i := 1; i < len(r.Parts); i++ {
		cuts[i] = rng.Intn(len(rows) + 1)
	}
	cuts[len(r.Parts)] = len(rows)
	sort.Ints(cuts)
	for p := range r.Parts {
		if part := rows[cuts[p]:cuts[p+1]]; len(part) > 0 || rng.Intn(2) == 0 {
			r.Parts[p] = blockOfRows(len(schema), part)
		}
	}
	return r
}

func TestTopKAndOrderByMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = 0
		}
		domain := 1 + rng.Intn(40) // small domains: heavy duplicates
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = make(Row, len(schema))
			for j := range rows[i] {
				rows[i][j] = dict.ID(rng.Intn(domain))
				if rng.Intn(8) == 0 {
					rows[i][j] = Null
				}
			}
		}
		r := randomParts(rng, schema, rows)
		cols := make([]SortCol, rng.Intn(4))
		for i := range cols {
			cols[i] = SortCol{Col: rng.Intn(len(schema)), Desc: rng.Intn(2) == 0}
		}
		want := refSort(rows, cols)

		x := NewCluster(1 + rng.Intn(3)).NewExec(nil)
		sorted := x.OrderBy(r, cols, mixedKey)
		if i := firstDiff(sorted.Rows(), want); i >= 0 {
			t.Fatalf("trial %d: OrderBy(%v) over %d rows differs from the reference at row %d", trial, cols, n, i)
		}
		for _, k := range []int{0, 1, rng.Intn(n + 1), n, n + 3} {
			got := x.TopK(r, k, cols, mixedKey).Rows()
			if i := firstDiff(got, x.Limit(sorted, 0, k).Rows()); i >= 0 {
				t.Fatalf("trial %d: TopK(%d, %v) over %d rows differs from OrderBy+Limit at row %d", trial, k, cols, n, i)
			}
		}
	}
}

// cancelAfter is a Yielder that cancels its context on the n-th poll and
// records how many keys the sort had computed by then.
type cancelAfter struct {
	polls, keys, keysAtCancel atomic.Int64
	n                         int64
	cancel                    context.CancelFunc
}

func (y *cancelAfter) Yield() {
	if y.polls.Add(1) == y.n {
		y.keysAtCancel.Store(y.keys.Load())
		y.cancel()
	}
}

// TestOrderByAndTopKStopWithinABatch cancels a sort and a top-k at a
// row-batch poll and checks that no partition computed more than one further
// batch of keys, and that a yielder that never cancels is polled once per
// batch without changing the result.
func TestOrderByAndTopKStopWithinABatch(t *testing.T) {
	const parts, perPart = 3, 20 * cancelBatch
	c := NewCluster(parts)
	r := c.exec().FromRows([]string{"v"}, yieldRows(parts*perPart))
	ops := map[string]func(x *Exec, keyOf func(dict.ID) SortKey) *Relation{
		"OrderBy": func(x *Exec, keyOf func(dict.ID) SortKey) *Relation {
			return x.OrderBy(r, []SortCol{{Col: 0, Desc: true}}, keyOf)
		},
		"TopK": func(x *Exec, keyOf func(dict.ID) SortKey) *Relation {
			return x.TopK(r, 50, []SortCol{{Col: 0, Desc: true}}, keyOf)
		},
	}
	for name, op := range ops {
		ctx, cancel := context.WithCancel(context.Background())
		y := &cancelAfter{n: 7, cancel: cancel}
		x := c.NewExecContext(WithYielder(ctx, y), nil)
		out := op(x, func(id dict.ID) SortKey {
			y.keys.Add(1)
			return idKey(id)
		})
		if x.Err() != context.Canceled || out.NumRows() != 0 {
			t.Fatalf("%s: cancelled run returned %d rows, Err %v", name, out.NumRows(), x.Err())
		}
		if extra := y.keys.Load() - y.keysAtCancel.Load(); extra > parts*cancelBatch {
			t.Errorf("%s: %d keys computed after cancellation, want at most one batch per partition (%d)",
				name, extra, parts*cancelBatch)
		}

		var polls countingYielder
		x = c.NewExecContext(WithYielder(context.Background(), &polls), nil)
		out = op(x, idKey)
		if got := out.Parts[0].Col(0)[0]; got != parts*perPart {
			t.Errorf("%s: yielding run's first row = %d, want %d", name, got, parts*perPart)
		}
		if got := polls.calls.Load(); got < parts*perPart/cancelBatch {
			t.Errorf("%s: yielder polled %d times over %d batches", name, got, parts*perPart/cancelBatch)
		}
	}
}

// benchSortInput is ≈2.4×10⁵ two-column rows over 3 partitions: column 0
// draws from 3×10⁴ values (every key repeats, as join output does), column
// 1 is the payload.
func benchSortInput() *Relation {
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, 240000)
	for i := range rows {
		rows[i] = Row{dict.ID(rng.Intn(30000)), dict.ID(i)}
	}
	return NewCluster(3).exec().FromRows([]string{"k", "v"}, rows)
}

// benchKeys builds the key functions the benchmarks sort by, decoding from
// a real dictionary exactly as core does: IRI terms, which key by text, and
// xsd:integer literals, which key by parsed value.
func benchKeys() []benchKey {
	termKey := func(d *dict.Dict) func(dict.ID) SortKey {
		return func(id dict.ID) SortKey {
			t := d.Decode(id)
			if v, ok := t.Numeric(); ok {
				return NumericKey(v)
			}
			return TextKey(string(t))
		}
	}
	iris, ints := dict.New(), dict.New()
	for i := 0; i < 30000; i++ {
		iris.Encode(rdf.NewIRI(fmt.Sprintf("http://db.uwaterloo.ca/~galuc/wsdbm/User%d", i*7919%30000)))
		ints.Encode(rdf.NewInteger(int64(i * 7919 % 30000)))
	}
	return []benchKey{{"iri", termKey(iris)}, {"numeric", termKey(ints)}}
}

type benchKey struct {
	name  string
	keyOf func(dict.ID) SortKey
}

var benchSink *Relation

func BenchmarkTopK(b *testing.B) {
	r := benchSortInput()
	for _, bk := range benchKeys() {
		b.Run(bk.name, func(b *testing.B) {
			x := NewCluster(3).NewExec(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = x.TopK(r, 10, ascCols(0), bk.keyOf)
			}
		})
	}
}

func BenchmarkOrderBy(b *testing.B) {
	r := benchSortInput()
	for _, bk := range benchKeys() {
		b.Run(bk.name, func(b *testing.B) {
			x := NewCluster(3).NewExec(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = x.OrderBy(r, ascCols(0), bk.keyOf)
			}
		})
	}
}
