package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// mixedTerms is a sort column mixing numeric and non-numeric terms, with
// each term's rank in ORDER BY's total order: unbound (rank 0, added by the
// tests) < numeric literals by value < every other term by its text. The
// first three are the cycle the old comparator had — 9 < 10 by value, but
// "10"^^xsd:integer < "5x" < "9"^^xsd:integer as text — and the double ties
// with the integer 10.
var mixedTerms = []struct {
	term rdf.Term
	rank int
}{
	{rdf.NewInteger(10), 2},
	{rdf.NewLiteral("5x"), 3},
	{rdf.NewInteger(9), 1},
	{rdf.NewTypedLiteral("1e1", rdf.XSDDouble), 2},
	{rdf.NewIRI("urn:a"), 4},
}

func mixedEngine(t *testing.T) (*Engine, map[dict.ID]int) {
	t.Helper()
	var triples []rdf.Triple
	for i, m := range mixedTerms {
		triples = append(triples, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("urn:s%d", i)), P: rdf.NewIRI("urn:p"), O: m.term})
	}
	e := New(layout.Build(triples, layout.DefaultOptions()), ModeVP)
	ranks := map[dict.ID]int{engine.Null: 0}
	for _, m := range mixedTerms {
		ranks[e.DS.Dict.Lookup(m.term)] = m.rank
	}
	return e, ranks
}

// permutations calls fn with every ordering of ids.
func permutations(ids []dict.ID, fn func([]dict.ID)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(ids) {
			fn(ids)
			return
		}
		for i := k; i < len(ids); i++ {
			ids[k], ids[i] = ids[i], ids[k]
			rec(k + 1)
			ids[k], ids[i] = ids[i], ids[k]
		}
	}
	rec(0)
}

// TestOrderByMixedColumnIgnoresInputOrder feeds every permutation of a mixed
// numeric / non-numeric column through both sort operators: the order of the
// result must not depend on the order of the input, top-k must equal the
// sort truncated row for row, and DESC must be the exact reverse up to ties.
func TestOrderByMixedColumnIgnoresInputOrder(t *testing.T) {
	e, ranks := mixedEngine(t)
	var ids []dict.ID
	for id := range ranks {
		ids = append(ids, id)
	}
	wantAsc := []int{0, 1, 2, 2, 3, 4}
	wantDesc := []int{4, 3, 2, 2, 1, 0}
	ranksOf := func(r *engine.Relation) []int {
		var out []int
		r.EachRow(func(_ int, row engine.Row) bool {
			out = append(out, ranks[row[0]])
			return true
		})
		return out
	}
	const k = 4
	permutations(ids, func(perm []dict.ID) {
		rows := make([]engine.Row, len(perm))
		for i, id := range perm {
			rows[i] = engine.Row{id, dict.ID(i)}
		}
		ex := e.Cluster.NewExec(nil)
		rel := ex.FromRows([]string{"v", "pos"}, rows)
		for _, c := range []struct {
			desc bool
			want []int
		}{{false, wantAsc}, {true, wantDesc}} {
			cols := []engine.SortCol{{Col: 0, Desc: c.desc}}
			sorted := ex.OrderBy(rel, cols, e.sortKey)
			if got := ranksOf(sorted); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("input %v desc=%v: OrderBy ranks %v, want %v", perm, c.desc, got, c.want)
			}
			top, lim := ex.TopK(rel, k, cols, e.sortKey), ex.Limit(sorted, 0, k)
			if !reflect.DeepEqual(top.Rows(), lim.Rows()) {
				t.Fatalf("input %v desc=%v: TopK %v, OrderBy+Limit %v", perm, c.desc, top.Rows(), lim.Rows())
			}
		}
	})
}

func TestOrderByMixedColumnQuery(t *testing.T) {
	e, ranks := mixedEngine(t)
	for q, want := range map[string][]int{
		`SELECT ?v WHERE { ?s <urn:p> ?v } ORDER BY ?v`:       {1, 2, 2, 3, 4},
		`SELECT ?v WHERE { ?s <urn:p> ?v } ORDER BY DESC(?v)`: {4, 3, 2, 2, 1},
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, row := range res.Rows {
			got = append(got, ranks[e.DS.Dict.Lookup(row[0])])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ranks %v, want %v", q, got, want)
		}
	}
}

// TestOrderByAggregateEncodedThisQuery sorts by COUNT results that enter the
// dictionary while the query runs: the sort must decode terms published
// after the store was built, and order them by value ("6" < "36"), from
// several queries at once.
func TestOrderByAggregateEncodedThisQuery(t *testing.T) {
	const groups = 12
	var triples []rdf.Triple
	for g := 0; g < groups; g++ {
		for j := 0; j < (g+1)*3; j++ {
			triples = append(triples, rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("urn:g%d", g)),
				P: rdf.NewIRI("urn:has"),
				O: rdf.NewIRI(fmt.Sprintf("urn:o%d_%d", g, j)),
			})
		}
	}
	e := New(layout.Build(triples, layout.DefaultOptions()), ModeVP)
	before := e.DS.Dict.Len()
	const q = `SELECT ?g (COUNT(?o) AS ?cnt) WHERE { ?g <urn:has> ?o } GROUP BY ?g ORDER BY DESC(?cnt)`
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(limit string) {
			defer wg.Done()
			res, err := e.Query(q + limit)
			if err != nil {
				t.Error(err)
				return
			}
			for i, row := range res.Rows {
				if want := rdf.NewInteger(int64((groups - i) * 3)); row[1] != want {
					t.Errorf("%q row %d: cnt = %v, want %v", limit, i, row[1], want)
				}
			}
			if want := map[string]int{"": groups, " LIMIT 1": 1}[limit]; len(res.Rows) != want {
				t.Errorf("%q: %d rows, want %d", limit, len(res.Rows), want)
			}
		}([]string{"", " LIMIT 1"}[w%2]) // full sort and top-k
	}
	wg.Wait()
	if got := e.DS.Dict.Len(); got != before+groups {
		t.Fatalf("dictionary grew by %d terms during the queries, want %d", got-before, groups)
	}
}

// TestStreamRawRowsOutliveTheirBatch keeps every NextRaw row until the
// stream is drained, as a buffering server does: a batch's rows are carved
// from one backing slice, and that slice must be the batch's alone.
func TestStreamRawRowsOutliveTheirBatch(t *testing.T) {
	e := New(chainDataset(t, 4000, 1), ModeVP)
	const q = `SELECT * WHERE { ?p <urn:score> ?s }`
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.QueryStream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var kept []engine.Row
	for {
		rows, err := s.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		kept = append(kept, rows...)
	}
	if len(kept) != want.Len() {
		t.Fatalf("kept %d rows, want %d", len(kept), want.Len())
	}
	for i, row := range kept {
		if cap(row) != len(row) {
			t.Fatalf("row %d has spare capacity %d: an append would overwrite its neighbour", i, cap(row)-len(row))
		}
		for j, id := range row {
			if got := e.DS.Dict.Decode(id); got != want.Rows[i][j] {
				t.Fatalf("row %d col %d = %v after the drain, want %v", i, j, got, want.Rows[i][j])
			}
		}
	}
}
