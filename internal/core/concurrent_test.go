package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// concurrentCases pairs every layout mode with a spread of query shapes so
// concurrent execution exercises scans, joins, OPTIONAL, UNION, DISTINCT
// and ORDER BY at once.
func concurrentCases() []struct{ mode, query string } {
	queries := []string{
		q1,
		`SELECT DISTINCT ?x WHERE { ?x <urn:likes> ?w }`,
		`SELECT ?x ?y ?w WHERE {
			?x <urn:follows> ?y
			OPTIONAL { ?x <urn:likes> ?w }
		}`,
		`SELECT ?a ?b WHERE {
			{ ?a <urn:follows> ?b } UNION { ?a <urn:likes> ?b }
		} ORDER BY ?a ?b`,
	}
	var cases []struct{ mode, query string }
	for _, mode := range []string{"ExtVP", "VP", "TT", "PT"} {
		for _, q := range queries {
			cases = append(cases, struct{ mode, query string }{mode, q})
		}
	}
	return cases
}

// TestConcurrentQueriesExactMetrics runs ≥ 8 goroutines issuing mixed
// ExtVP/VP/TT/PT queries against one store and asserts every in-flight
// query reports bindings and per-query metrics identical to an isolated
// sequential run — the property the Exec refactor exists to provide. Run
// with -race to also verify memory safety.
func TestConcurrentQueriesExactMetrics(t *testing.T) {
	ds := g1Dataset(t)
	engines := allModes(ds)
	cases := concurrentCases()

	type expectation struct {
		bindings []string
		metrics  interface{}
	}
	expected := make([]expectation, len(cases))
	for i, tc := range cases {
		res, err := engines[tc.mode].Query(tc.query)
		if err != nil {
			t.Fatalf("baseline %s %q: %v", tc.mode, tc.query, err)
		}
		expected[i] = expectation{bindings: canon(res), metrics: res.Metrics}
	}

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		i := w % len(cases)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, want := cases[i], expected[i]
			e := engines[tc.mode]
			for n := 0; n < iters; n++ {
				res, err := e.Query(tc.query)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", tc.mode, err)
					return
				}
				if got := canon(res); !reflect.DeepEqual(got, want.bindings) {
					errs <- fmt.Errorf("%s %q: bindings %v, want %v", tc.mode, tc.query, got, want.bindings)
					return
				}
				if !reflect.DeepEqual(res.Metrics, want.metrics) {
					errs <- fmt.Errorf("%s %q: metrics %+v, want %+v (interleaved accounting)",
						tc.mode, tc.query, res.Metrics, want.metrics)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSelectionCacheEviction: the selection cache is an LRU over BGPs. At
// capacity 2, a third BGP evicts the least recently used one, whose next
// planning runs Algorithm 1 again, while the most recent still hits.
func TestSelectionCacheEviction(t *testing.T) {
	ds := g1Dataset(t)
	e := New(ds, ModeVP)
	e.Selections = NewSelectionCache(2)

	queries := []string{
		`SELECT ?s WHERE { ?s <urn:follows> ?o }`,
		`SELECT ?o WHERE { ?o <urn:follows> ?s }`,
		`SELECT ?s WHERE { ?s <urn:likes> ?o }`,
	}
	for _, q := range queries {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// The first (evicted) BGP misses; the most recent hits.
	res, err := e.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionCacheMisses != 1 {
		t.Errorf("evicted BGP: %d hits / %d misses, want a miss", res.SelectionCacheHits, res.SelectionCacheMisses)
	}
	res, err = e.Query(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionCacheHits != 1 {
		t.Errorf("recent BGP: %d hits / %d misses, want a hit", res.SelectionCacheHits, res.SelectionCacheMisses)
	}
}

func TestNormalizeQuery(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		same bool
	}{
		{"SELECT ?x WHERE { ?x <urn:p> ?y }", "SELECT  ?x\nWHERE {\n\t?x <urn:p> ?y }", true},
		{`SELECT ?x WHERE { ?x <urn:p> "a b" }`, `SELECT ?x WHERE { ?x <urn:p> "a  b" }`, false},
		{`SELECT ?x WHERE { ?x <urn:p> 'a\t b' }`, `SELECT ?x WHERE { ?x <urn:p> 'a\t  b' }`, false},
		{"SELECT ?x WHERE { ?x <urn:p> ?y }", "SELECT ?y WHERE { ?y <urn:p> ?x }", false},
		// A '#' comment ends at the newline: text after it on the same line
		// is commented out, text on the next line is not.
		{"SELECT ?x WHERE { ?x <urn:p> ?y } # note\nLIMIT 1",
			"SELECT ?x WHERE { ?x <urn:p> ?y } # note LIMIT 1", false},
		{"SELECT ?x WHERE { ?x <urn:p> ?y } # comment\n",
			"SELECT ?x WHERE { ?x <urn:p> ?y }", true},
		// '#' inside an IRI is a fragment, not a comment.
		{"SELECT ?x WHERE { ?x <urn:p#frag> ?y }",
			"SELECT ?x WHERE { ?x <urn:p> ?y }", false},
		{"SELECT ?x WHERE { ?x <urn:p#frag> ?y }",
			"SELECT  ?x WHERE { ?x <urn:p#frag> ?y }", true},
	} {
		na, nb := NormalizeQuery(tc.a), NormalizeQuery(tc.b)
		if (na == nb) != tc.same {
			t.Errorf("NormalizeQuery(%q) = %q vs NormalizeQuery(%q) = %q, want same=%v",
				tc.a, na, tc.b, nb, tc.same)
		}
	}
}
