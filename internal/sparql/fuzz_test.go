package sparql

import (
	"strings"
	"testing"
)

// FuzzParse drives the SPARQL parser with arbitrary input. The contract
// under fuzzing: Parse either returns a query or an error — it never
// panics, hangs, or returns both nil. Query text arrives from untrusted
// HTTP clients, so any parser panic is a remotely-triggerable crash.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * WHERE { ?s ?p ?o }",
		"SELECT ?x WHERE { ?x <urn:follows> <urn:B> . FILTER(?x != <urn:A>) }",
		"PREFIX ex: <urn:ex#> SELECT ?s WHERE { ?s ex:p \"lit\"@en }",
		"SELECT DISTINCT ?s WHERE { { ?s ?p ?o } UNION { ?o ?p ?s } } ORDER BY DESC(?s) LIMIT 5 OFFSET 2",
		"SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING(COUNT(?o) > 1)",
		"ASK { ?s ?p ?o }",
		"SELECT * WHERE { ?s ?p ?o . OPTIONAL { ?o ?q ?v . FILTER(?v > 3) } }",
		"SELECT * WHERE { ?s ?p \"x\"^^<urn:dt> }",
		`SELECT * WHERE { ?s ?p "unterminated`,
		"SELECT * WHERE { ?s ?p ?o FILTER(1 + 2 * (3 - ?o) >= ?s || !BOUND(?o)) }",
		"SELECT",
		"SELECT * WHERE {{{{{{",
		"# comment only",
		"SELECT * WHERE { ?s a ?t }",
		"\x00\xff\xfe",
		"SELECT * WHERE { ?s ?p -0.5e+300 }",
		nestedGroups(maxDepth + 1),
		nestedBrackets(maxDepth),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if q == nil && err == nil {
			t.Fatalf("Parse(%q) returned neither query nor error", src)
		}
		if q != nil && err != nil {
			t.Fatalf("Parse(%q) returned both query and error", src)
		}
		if q != nil {
			// Everything a server calls on a freshly parsed query must also
			// hold up: these run before any result is written.
			_ = q.SelectVars()
			_ = q.HasAggregates()
			for _, tp := range q.Where.Triples {
				_ = tp.String()
				_ = tp.Vars()
			}
		}
	})
}

// TestFuzzRegressions pins inputs that previously crashed (or could crash)
// the parser, so the contract holds without running the fuzzer.
func TestFuzzRegressions(t *testing.T) {
	cases := []string{
		"",
		"SELECT * WHERE { ?s ?p \"",
		"SELECT ( WHERE",
		"SELECT * WHERE { ?s ?p ?o } LIMIT 99999999999999999999",
		"SELECT * WHERE { ?s ?p 'a' }",
		strings.Repeat("(", 10000),
		"SELECT * WHERE { ?s <urn:p> ?o . FILTER(?o = \"\\",
		"PREFIX : <",
	}
	for _, src := range cases {
		q, err := Parse(src)
		if q == nil && err == nil {
			t.Errorf("Parse(%q) returned neither query nor error", src)
		}
	}
}
