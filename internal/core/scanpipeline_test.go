package core

import (
	"fmt"
	"reflect"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// chainTriples builds a large sorted VP table so the scan pipeline has
// something to prune: 5000 `rel` triples with distinct subjects and a few
// hundred distinct objects, plus a small `tag` predicate.
func chainTriples() []rdf.Triple {
	iri := rdf.NewIRI
	rel, tag := iri("urn:rel"), iri("urn:tag")
	var ts []rdf.Triple
	for i := 0; i < 5000; i++ {
		ts = append(ts, rdf.Triple{
			S: iri(fmt.Sprintf("urn:s%04d", i)),
			P: rel,
			O: iri(fmt.Sprintf("urn:o%d", i%300)),
		})
	}
	for i := 0; i < 20; i++ {
		ts = append(ts, rdf.Triple{
			S: iri(fmt.Sprintf("urn:s%04d", i*17)), P: tag, O: iri("urn:t"),
		})
	}
	return ts
}

// TestResultReportsRowsPruned: a bound-subject pattern over a sorted
// VP table must report pruning both per scan (Plan) and in the
// query metrics, and still return the right rows.
func TestResultReportsRowsPruned(t *testing.T) {
	ds := layout.Build(chainTriples(), layout.Options{BuildExtVP: false})
	e := New(ds, ModeVP)
	res, err := e.Query(`SELECT ?o WHERE { <urn:s1234> <urn:rel> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if res.Metrics.RowsPruned != 4999 {
		t.Errorf("Metrics.RowsPruned = %d, want 4999 (binary search keeps one row)", res.Metrics.RowsPruned)
	}
	if len(res.Plan) != 1 || res.Plan[0].Pruned != 4999 || res.Plan[0].Scanned != 5000 {
		t.Errorf("Plan[0] scanned/pruned = %d/%d, want 5000/4999",
			res.Plan[0].Scanned, res.Plan[0].Pruned)
	}

	// TT mode prunes through the predicate sort column instead.
	tt := New(ds, ModeTT)
	resTT, err := tt.Query(`SELECT ?o WHERE { <urn:s1234> <urn:rel> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if resTT.Len() != 1 {
		t.Fatalf("TT rows = %d, want 1", resTT.Len())
	}
	if resTT.Metrics.RowsPruned == 0 {
		t.Error("TT-mode scan pruned nothing; predicate binary search broken")
	}
}

// TestFilterPushdownIntoScan: a FILTER whose variables one pattern covers
// is evaluated inside that pattern's scan — visible as a smaller
// RowsOutput — and the results match an engine that cannot push (the
// filter spanning both patterns stays at group level).
func TestFilterPushdownIntoScan(t *testing.T) {
	ds := layout.Build(chainTriples(), layout.Options{BuildExtVP: false})
	e := New(ds, ModeVP)

	// ?o is covered by the first pattern: the regex-free comparison filter
	// runs inside the scan, so scan output already excludes non-matches.
	pushed, err := e.Query(`SELECT ?s ?o WHERE {
		?s <urn:rel> ?o . ?s <urn:tag> ?t .
		FILTER (?o = <urn:o17>)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the TT engine (filters apply at group level there
	// too, but results must agree regardless of where the filter ran).
	want, err := New(ds, ModeTT).Query(`SELECT ?s ?o WHERE {
		?s <urn:rel> ?o . ?s <urn:tag> ?t .
		FILTER (?o = <urn:o17>)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if pushed.Len() != want.Len() {
		t.Fatalf("pushed filter: %d rows, ground truth %d", pushed.Len(), want.Len())
	}
	if !reflect.DeepEqual(canon(pushed), canon(want)) {
		t.Error("pushed-filter result differs from ground truth")
	}

	// The push is observable in the metrics: the rel scan emits only the
	// filtered rows, so total operator output stays far below the 5000
	// rows an unpushed scan would have materialized before filtering.
	if pushed.Metrics.RowsOutput >= 5000 {
		t.Errorf("RowsOutput = %d; pushed filter should emit far fewer than the 5000-row scan",
			pushed.Metrics.RowsOutput)
	}
}

// TestFilterSpanningPatternsStaysAtGroupLevel: a filter referencing
// variables from two patterns cannot be pushed into either scan and must
// still be applied (correct result, not dropped).
func TestFilterSpanningPatternsStaysAtGroupLevel(t *testing.T) {
	iri := rdf.NewIRI
	p1, p2 := iri("urn:p1"), iri("urn:p2")
	ds := layout.Build([]rdf.Triple{
		{S: iri("urn:a"), P: p1, O: iri("urn:v1")},
		{S: iri("urn:a"), P: p2, O: iri("urn:v1")},
		{S: iri("urn:b"), P: p1, O: iri("urn:v1")},
		{S: iri("urn:b"), P: p2, O: iri("urn:v2")},
	}, layout.Options{BuildExtVP: false})
	e := New(ds, ModeVP)
	res, err := e.Query(`SELECT ?x WHERE {
		?x <urn:p1> ?a . ?x <urn:p2> ?b . FILTER (?a = ?b)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (only urn:a has equal objects)", res.Len())
	}
	if got := res.Bindings()[0]["x"]; got != iri("urn:a") {
		t.Errorf("x = %v, want urn:a", got)
	}
}

// TestEqualVariablePatternVectorized pins the ?x p ?x fold into the vector
// pass end to end.
func TestEqualVariablePatternVectorized(t *testing.T) {
	iri := rdf.NewIRI
	p := iri("urn:p")
	ds := layout.Build([]rdf.Triple{
		{S: iri("urn:a"), P: p, O: iri("urn:b")},
		{S: iri("urn:b"), P: p, O: iri("urn:b")}, // self-loop
		{S: iri("urn:c"), P: p, O: iri("urn:a")},
	}, layout.Options{BuildExtVP: false})
	for _, mode := range []Mode{ModeVP, ModeTT} {
		e := New(ds, mode)
		res, err := e.Query(`SELECT ?x WHERE { ?x <urn:p> ?x }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Bindings()[0]["x"] != iri("urn:b") {
			t.Errorf("%v: bindings = %v, want one row x=urn:b", mode, res.Bindings())
		}
	}
}
