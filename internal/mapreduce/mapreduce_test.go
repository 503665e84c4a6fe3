package mapreduce

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
)

// g1 is the paper's running-example graph.
func g1() []rdf.Triple {
	iri := rdf.NewIRI
	follows, likes := iri("urn:follows"), iri("urn:likes")
	return []rdf.Triple{
		{S: iri("urn:A"), P: follows, O: iri("urn:B")},
		{S: iri("urn:B"), P: follows, O: iri("urn:C")},
		{S: iri("urn:B"), P: follows, O: iri("urn:D")},
		{S: iri("urn:C"), P: follows, O: iri("urn:D")},
		{S: iri("urn:A"), P: likes, O: iri("urn:I1")},
		{S: iri("urn:A"), P: likes, O: iri("urn:I2")},
		{S: iri("urn:C"), P: likes, O: iri("urn:I2")},
	}
}

const q1 = `SELECT * WHERE {
	?x <urn:likes> ?w . ?x <urn:follows> ?y .
	?y <urn:follows> ?z . ?z <urn:likes> ?w
}`

func TestFrameworkWordCount(t *testing.T) {
	fw := New(t.TempDir())
	input := fw.Dir + "/in.txt"
	if err := writeLines(input, []string{"a b a", "b c"}); err != nil {
		t.Fatal(err)
	}
	out, err := fw.Run(Job{
		Name:   "wordcount",
		Inputs: []string{input},
		Map: func(_ int, line string, emit func(k, v string)) {
			for _, w := range strings.Fields(line) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string, emit func(line string)) {
			emit(fmt.Sprintf("%s %d", key, len(values)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := readLines(out)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	want := []string{"a 2", "b 2", "c 1"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("got %v, want %v", lines, want)
	}
	st := fw.Stats()
	if st.Jobs != 1 || st.LinesRead != 2 || st.LinesWritten != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBindingCodecRoundTrip(t *testing.T) {
	b := binding{"x": rdf.NewIRI("urn:a"), "w": rdf.NewLiteral("hello world")}
	got := decodeBinding(b.encode())
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip = %v, want %v", got, b)
	}
	if len(decodeBinding("")) != 0 {
		t.Error("empty line should decode to empty binding")
	}
}

func TestBindingMergeConflict(t *testing.T) {
	a := binding{"x": rdf.NewIRI("urn:1")}
	b := binding{"x": rdf.NewIRI("urn:2")}
	if _, ok := a.merge(b); ok {
		t.Error("conflicting merge succeeded")
	}
	c := binding{"y": rdf.NewIRI("urn:3")}
	m, ok := a.merge(c)
	if !ok || len(m) != 2 {
		t.Errorf("merge = %v, %v", m, ok)
	}
}

func TestSHARDQ1(t *testing.T) {
	fw := New(t.TempDir())
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1: %v", res.Len(), res.Rows)
	}
	// One job per triple pattern (Clause-Iteration).
	if res.Jobs != 4 {
		t.Errorf("jobs = %d, want 4", res.Jobs)
	}
	if res.Simulated < 4*fw.JobOverhead {
		t.Errorf("simulated = %v, want >= %v", res.Simulated, 4*fw.JobOverhead)
	}
}

func TestPigSPARQLQ1(t *testing.T) {
	fw := New(t.TempDir())
	e, err := NewPigSPARQL(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1: %v", res.Len(), res.Rows)
	}
	// Multi-join optimization: fewer jobs than SHARD's 4.
	if res.Jobs >= 4 {
		t.Errorf("jobs = %d, want < 4 (multi-join merging)", res.Jobs)
	}
}

func TestPigSPARQLStarIsOneJob(t *testing.T) {
	fw := New(t.TempDir())
	e, err := NewPigSPARQL(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT * WHERE {
		?x <urn:likes> ?a . ?x <urn:likes> ?b . ?x <urn:follows> ?c
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 1 {
		t.Errorf("star query jobs = %d, want 1", res.Jobs)
	}
	// A: likes {I1,I2}², follows {B}: 4 rows; C: likes {I2}², follows {D}: 1.
	if res.Len() != 5 {
		t.Errorf("rows = %d, want 5", res.Len())
	}
}

func TestSHARDAndPigAgree(t *testing.T) {
	fw := New(t.TempDir())
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPigSPARQL(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		q1,
		`SELECT ?y WHERE { <urn:B> <urn:follows> ?y }`,
		`SELECT ?x ?y ?z WHERE { ?x <urn:follows> ?y . ?y <urn:likes> ?z }`,
		`SELECT ?p WHERE { <urn:A> ?p <urn:B> }`,
		`SELECT DISTINCT ?x WHERE { ?x <urn:likes> ?w }`,
	}
	for _, q := range queries {
		rs, err := s.Query(q)
		if err != nil {
			t.Fatalf("SHARD %q: %v", q, err)
		}
		rp, err := p.Query(q)
		if err != nil {
			t.Fatalf("Pig %q: %v", q, err)
		}
		if rs.Len() != rp.Len() {
			t.Errorf("%q: SHARD %d rows, Pig %d rows", q, rs.Len(), rp.Len())
		}
	}
}

func TestEmptyPredicate(t *testing.T) {
	fw := New(t.TempDir())
	p, err := NewPigSPARQL(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(`SELECT ?x WHERE { ?x <urn:nosuch> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Query(`SELECT ?x WHERE { ?x <urn:nosuch> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 0 {
		t.Errorf("SHARD rows = %d, want 0", rs.Len())
	}
}

func TestFilterAndModifiers(t *testing.T) {
	fw := New(t.TempDir())
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?x WHERE {
		?x <urn:likes> ?w . FILTER (?w = <urn:I2>)
	} ORDER BY ?x LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != rdf.NewIRI("urn:A") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOptionalRejected(t *testing.T) {
	fw := New(t.TempDir())
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(`SELECT * WHERE { ?x <urn:likes> ?w OPTIONAL { ?x <urn:follows> ?y } }`); err == nil {
		t.Error("OPTIONAL should be rejected")
	}
}

func TestJoinGroups(t *testing.T) {
	q := `SELECT * WHERE {
		?x <urn:likes> ?w . ?x <urn:follows> ?y .
		?y <urn:follows> ?z . ?z <urn:likes> ?w
	}`
	parsed := mustParse(t, q)
	groups := joinGroups(parsed)
	if len(groups) < 2 || len(groups) > 3 {
		t.Errorf("groups = %d, want 2-3", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g.patterns)
	}
	if total != 4 {
		t.Errorf("grouped patterns = %d, want 4", total)
	}
}

func TestJobOverheadConfigurable(t *testing.T) {
	fw := New(t.TempDir())
	fw.JobOverhead = time.Second
	s, err := NewSHARD(fw, g1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(`SELECT ?y WHERE { <urn:B> <urn:follows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated-res.Wall != time.Second {
		t.Errorf("overhead = %v, want 1s", res.Simulated-res.Wall)
	}
}

func mustParse(t *testing.T, src string) []sparqlTP {
	t.Helper()
	q, err := parseHelper(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

type sparqlTP = sparql.TriplePattern

func parseHelper(src string) ([]sparqlTP, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Where.Triples, nil
}
