package sparql

import (
	"strings"
	"testing"

	"s2rdf/internal/rdf"
)

func TestParseRunningExampleQ1(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?x <likes> ?w . ?x <follows> ?y .
		?y <follows> ?z . ?z <likes> ?w
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Triples) != 4 {
		t.Fatalf("triples = %d, want 4", len(q.Where.Triples))
	}
	tp := q.Where.Triples[0]
	if tp.S.Var != "x" || tp.P.Term != rdf.NewIRI("likes") || tp.O.Var != "w" {
		t.Errorf("tp1 = %v", tp)
	}
	vars := q.SelectVars()
	want := []string{"x", "w", "y", "z"}
	if len(vars) != 4 {
		t.Fatalf("SelectVars = %v", vars)
	}
	for _, v := range want {
		if indexOf(vars, v) < 0 {
			t.Errorf("missing var %q in %v", v, vars)
		}
	}
}

func TestParsePrefixedNames(t *testing.T) {
	q, err := Parse(`
		PREFIX ex: <http://example.org/>
		SELECT ?v0 WHERE { ?v0 ex:knows wsdbm:User3 . }`)
	if err != nil {
		t.Fatal(err)
	}
	tp := q.Where.Triples[0]
	if tp.P.Term != rdf.NewIRI("http://example.org/knows") {
		t.Errorf("predicate = %q", tp.P.Term)
	}
	if tp.O.Term != rdf.NewIRI("http://db.uwaterloo.ca/~galuc/wsdbm/User3") {
		t.Errorf("object = %q", tp.O.Term)
	}
}

// TestParsePrefixDoesNotLeak checks that a PREFIX declared by one query —
// new or overriding a predeclared one — is invisible to the next parse,
// while the first query keeps its declarations in Query.Prefixes.
func TestParsePrefixDoesNotLeak(t *testing.T) {
	first, err := Parse(`
		PREFIX ex: <http://example.org/>
		PREFIX wsdbm: <http://other.example/>
		SELECT ?v0 WHERE { ?v0 ex:knows wsdbm:User3 . }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(`SELECT ?v0 WHERE { ?v0 ex:knows ?v1 . }`); err == nil {
		t.Error("ex: declared by an earlier query resolved in a later one")
	}
	next, err := Parse(`SELECT ?v0 WHERE { ?v0 wsdbm:follows wsdbm:User3 . }`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := next.Where.Triples[0].O.Term, rdf.NewIRI("http://db.uwaterloo.ca/~galuc/wsdbm/User3"); got != want {
		t.Errorf("later query's wsdbm:User3 = %q, want the predeclared %q", got, want)
	}
	if got := rdf.CommonPrefixes()["wsdbm"]; got != "http://db.uwaterloo.ca/~galuc/wsdbm/" {
		t.Errorf("shared table's wsdbm = %q after an overriding PREFIX", got)
	}
	if first.Prefixes["ex"] != "http://example.org/" || first.Prefixes["wsdbm"] != "http://other.example/" {
		t.Errorf("first query's Prefixes lost its declarations: %v", first.Prefixes)
	}
	if next.Prefixes["ex"] != "" {
		t.Errorf("later query's Prefixes holds ex: %q", next.Prefixes["ex"])
	}
}

func TestParseWatDivS3(t *testing.T) {
	// Real template from the paper's Appendix A (placeholder instantiated).
	q, err := Parse(`SELECT ?v0 ?v2 ?v3 ?v4 WHERE {
		?v0 rdf:type wsdbm:ProductCategory3 .
		?v0 sorg:caption ?v2 .
		?v0 wsdbm:hasGenre ?v3 .
		?v0 sorg:publisher ?v4 .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where.Triples) != 4 {
		t.Fatalf("triples = %d", len(q.Where.Triples))
	}
	if q.Where.Triples[0].P.Term != rdf.NewIRI(rdf.RDFType) {
		t.Errorf("rdf:type not expanded: %q", q.Where.Triples[0].P.Term)
	}
	if len(q.Vars) != 4 {
		t.Errorf("Vars = %v", q.Vars)
	}
}

func TestParseAKeyword(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s a wsdbm:Role2 . }`)
	if q.Where.Triples[0].P.Term != rdf.NewIRI(rdf.RDFType) {
		t.Errorf("a != rdf:type: %q", q.Where.Triples[0].P.Term)
	}
}

func TestParseSemicolonCommaAbbreviations(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?s <p> ?a , ?b ; <q> ?c .
	}`)
	if len(q.Where.Triples) != 3 {
		t.Fatalf("triples = %d, want 3", len(q.Where.Triples))
	}
	for _, tp := range q.Where.Triples {
		if tp.S.Var != "s" {
			t.Errorf("subject = %v", tp.S)
		}
	}
	if q.Where.Triples[2].P.Term != rdf.NewIRI("q") {
		t.Errorf("third predicate = %v", q.Where.Triples[2].P)
	}
}

func TestParseDistinctLimitOffsetOrder(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?x WHERE { ?x <p> ?y . }
		ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5`)
	if !q.Distinct {
		t.Error("Distinct not set")
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[0].Var != "y" ||
		q.OrderBy[1].Desc || q.OrderBy[1].Var != "x" {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
}

func TestParseFilter(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <age> ?a .
		FILTER (?a >= 18 && ?a < 65)
	}`)
	if len(q.Where.Filters) != 1 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
	f := q.Where.Filters[0]
	vars := f.Vars()
	if len(vars) != 1 || vars[0] != "a" {
		t.Errorf("filter vars = %v", vars)
	}
	if !f.Eval(Binding{"a": rdf.NewInteger(30)}) {
		t.Error("age 30 should pass")
	}
	if f.Eval(Binding{"a": rdf.NewInteger(70)}) {
		t.Error("age 70 should fail")
	}
	if f.Eval(Binding{"a": rdf.NewInteger(17)}) {
		t.Error("age 17 should fail")
	}
	if f.Eval(Binding{}) {
		t.Error("unbound should fail")
	}
}

func TestParseFilterStringAndRegex(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <name> ?n .
		FILTER regex(?n, "^Ali")
	}`)
	f := q.Where.Filters[0]
	if !f.Eval(Binding{"n": rdf.NewLiteral("Alice")}) {
		t.Error("Alice should match")
	}
	if f.Eval(Binding{"n": rdf.NewLiteral("Bob")}) {
		t.Error("Bob should not match")
	}
}

func TestParseFilterBuiltins(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <p> ?y .
		FILTER (bound(?y) && isIRI(?y))
	}`)
	f := q.Where.Filters[0]
	if !f.Eval(Binding{"y": rdf.NewIRI("http://a")}) {
		t.Error("bound IRI should pass")
	}
	if f.Eval(Binding{"y": rdf.NewLiteral("x")}) {
		t.Error("literal should fail isIRI")
	}
	if f.Eval(Binding{}) {
		t.Error("unbound should fail bound()")
	}
}

func TestParseFilterEqualityOnTerms(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y = wsdbm:User5) }`)
	f := q.Where.Filters[0]
	user5 := rdf.NewIRI("http://db.uwaterloo.ca/~galuc/wsdbm/User5")
	if !f.Eval(Binding{"y": user5}) {
		t.Error("equal IRI should pass")
	}
	if f.Eval(Binding{"y": rdf.NewIRI("http://other")}) {
		t.Error("different IRI should fail")
	}
}

func TestParseOptional(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <p> ?y .
		OPTIONAL { ?x <email> ?e . FILTER (?e != "none") }
	}`)
	if len(q.Where.Optionals) != 1 {
		t.Fatalf("optionals = %d", len(q.Where.Optionals))
	}
	opt := q.Where.Optionals[0]
	if len(opt.Triples) != 1 || len(opt.Filters) != 1 {
		t.Errorf("optional content = %d triples, %d filters", len(opt.Triples), len(opt.Filters))
	}
}

func TestParseUnion(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <p> ?y .
		{ ?y <q> ?z } UNION { ?y <r> ?z } UNION { ?y <s> ?z }
	}`)
	if len(q.Where.Unions) != 1 {
		t.Fatalf("unions = %d", len(q.Where.Unions))
	}
	if n := len(q.Where.Unions[0].Alternatives); n != 3 {
		t.Errorf("alternatives = %d, want 3", n)
	}
}

func TestParseNestedGroupMerges(t *testing.T) {
	q := MustParse(`SELECT * WHERE { { ?x <p> ?y . } ?y <q> ?z . }`)
	if len(q.Where.Triples) != 2 {
		t.Errorf("triples = %d, want 2 (nested group should merge)", len(q.Where.Triples))
	}
}

func TestParseLiteralObjects(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?x <name> "Alice" .
		?x <age> 42 .
		?x <score> 3.5 .
		?x <active> true .
		?x <label> "chat"@fr .
		?x <count> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
	}`)
	tps := q.Where.Triples
	if tps[0].O.Term != rdf.NewLiteral("Alice") {
		t.Errorf("string literal = %q", tps[0].O.Term)
	}
	if tps[1].O.Term != rdf.NewTypedLiteral("42", rdf.XSDInteger) {
		t.Errorf("int literal = %q", tps[1].O.Term)
	}
	if tps[2].O.Term != rdf.NewTypedLiteral("3.5", rdf.XSDDecimal) {
		t.Errorf("decimal literal = %q", tps[2].O.Term)
	}
	if tps[3].O.Term != rdf.NewTypedLiteral("true", rdf.XSDBoolean) {
		t.Errorf("bool literal = %q", tps[3].O.Term)
	}
	if tps[4].O.Term != rdf.Term(`"chat"@fr`) {
		t.Errorf("lang literal = %q", tps[4].O.Term)
	}
	if tps[5].O.Term != rdf.NewInteger(7) {
		t.Errorf("typed literal = %q", tps[5].O.Term)
	}
}

func TestParseVariablePredicate(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?s ?p ?o . }`)
	if !q.Where.Triples[0].P.IsVar() {
		t.Error("predicate should be a variable")
	}
	if q.Where.Triples[0].BoundCount() != 0 {
		t.Errorf("BoundCount = %d", q.Where.Triples[0].BoundCount())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE { ?x <p> }`,
		`SELECT ?x WHERE { ?x <p> ?y`,
		`SELECT ?x WHERE { ?x nosuchprefix:p ?y }`,
		`DESCRIBE ?x`,
		`SELECT ?x WHERE { ?x <p> ?y } GARBAGE`,
		`SELECT ?x WHERE { ?x <p> "unterminated }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER (?y = ) }`,
		`SELECT ?x WHERE { ?x <p> ?y . FILTER regex(?y, "[") }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// nestedGroups returns a query whose pattern nests n groups.
func nestedGroups(n int) string {
	return "SELECT * WHERE " + strings.Repeat("{ ", n) + "?s ?p ?o " + strings.Repeat("} ", n)
}

// nestedBrackets returns a query whose filter nests n brackets inside its
// one group.
func nestedBrackets(n int) string {
	return "SELECT * WHERE { ?s ?p ?o FILTER" + strings.Repeat("(", n) + "?o" + strings.Repeat(")", n) + " }"
}

// TestParseNestingDepth: groups and brackets nest up to maxDepth levels
// together; one more is a parse error, not a deeper recursion.
func TestParseNestingDepth(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		wantError bool
	}{
		{"groups at the limit", nestedGroups(maxDepth), false},
		{"groups past the limit", nestedGroups(maxDepth + 1), true},
		{"brackets at the limit", nestedBrackets(maxDepth - 1), false},
		{"brackets past the limit", nestedBrackets(maxDepth), true},
		{"negations past the limit", "SELECT * WHERE { ?s ?p ?o FILTER(" + strings.Repeat("!", maxDepth) + "?o) }", true},
		{"deep brackets", nestedBrackets(200_000), true},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		switch {
		case c.wantError && (err == nil || !strings.Contains(err.Error(), "nests deeper")):
			t.Errorf("%s: Parse = %v, want a nesting error", c.name, err)
		case !c.wantError && (err != nil || len(q.Where.Triples) != 1):
			t.Errorf("%s: Parse = %v, want one triple pattern", c.name, err)
		}
	}
}

func TestParseErrorMentionsLine(t *testing.T) {
	_, err := Parse("SELECT ?x WHERE {\n ?x <p> }\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestTriplePatternHelpers(t *testing.T) {
	tp := TriplePattern{
		S: Variable("x"),
		P: Bound(rdf.NewIRI("p")),
		O: Variable("x"),
	}
	vars := tp.Vars()
	if len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars = %v", vars)
	}
	if tp.BoundCount() != 1 {
		t.Errorf("BoundCount = %d", tp.BoundCount())
	}
	if tp.String() != "?x <p> ?x" {
		t.Errorf("String = %q", tp.String())
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?x WHERE { ?x <p> ?y . }`)
	s := q.String()
	if !strings.Contains(s, "DISTINCT") || !strings.Contains(s, "?x <p> ?y") {
		t.Errorf("String = %q", s)
	}
	q2 := MustParse(`SELECT * WHERE { ?x <p> ?y . }`)
	if !strings.Contains(q2.String(), "*") {
		t.Errorf("String = %q", q2.String())
	}
}

func TestGroupVars(t *testing.T) {
	q := MustParse(`SELECT * WHERE {
		?a <p> ?b .
		OPTIONAL { ?b <q> ?c }
		{ ?b <r> ?d } UNION { ?b <s> ?e }
	}`)
	vars := q.Where.Vars()
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		if indexOf(vars, v) < 0 {
			t.Errorf("missing %q in %v", v, vars)
		}
	}
}

func TestFilterLogicThreeValued(t *testing.T) {
	// false && error  must be false; true || error must be true.
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (false && ?missing > 1) }`)
	if q.Where.Filters[0].Eval(Binding{}) {
		t.Error("false && error should be false (not crash)")
	}
	q2 := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (true || ?missing > 1) }`)
	if !q2.Where.Filters[0].Eval(Binding{}) {
		t.Error("true || error should be true")
	}
	q3 := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (!(?y = 1)) }`)
	if !q3.Where.Filters[0].Eval(Binding{"y": rdf.NewInteger(2)}) {
		t.Error("!(2=1) should be true")
	}
}

func TestFilterArithmetic(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y * 2 + 1 = 7) }`)
	f := q.Where.Filters[0]
	if !f.Eval(Binding{"y": rdf.NewInteger(3)}) {
		t.Error("3*2+1 = 7 should pass")
	}
	if f.Eval(Binding{"y": rdf.NewInteger(4)}) {
		t.Error("4*2+1 = 7 should fail")
	}
	qd := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y / 0 = 1) }`)
	if qd.Where.Filters[0].Eval(Binding{"y": rdf.NewInteger(3)}) {
		t.Error("division by zero should be an error (false)")
	}
}

// TestEqualHelper checks a parsed ?x = <iri> filter. (The name dates from
// the sparql.Equal constructor; the parser builds the expression now.)
func TestEqualHelper(t *testing.T) {
	e := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?x = <http://a>) }`).Where.Filters[0]
	if !e.Eval(Binding{"x": rdf.NewIRI("http://a")}) {
		t.Error("Equal should match")
	}
	if e.Eval(Binding{"x": rdf.NewIRI("http://b")}) {
		t.Error("Equal should not match different term")
	}
	if len(e.Vars()) != 1 || e.Vars()[0] != "x" {
		t.Errorf("Vars = %v", e.Vars())
	}
}

// TestBoundExprHelper checks a parsed bound(?x) filter. (The name dates
// from the sparql.BoundExpr constructor; the parser builds it now.)
func TestBoundExprHelper(t *testing.T) {
	e := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (bound(?x)) }`).Where.Filters[0]
	if !e.Eval(Binding{"x": rdf.NewLiteral("v")}) || e.Eval(Binding{}) {
		t.Error("BoundExpr wrong")
	}
}

func TestParseAsk(t *testing.T) {
	q := MustParse(`ASK { ?x <p> ?y . FILTER (?y = 1) }`)
	if !q.Ask {
		t.Error("Ask not set")
	}
	if len(q.Where.Triples) != 1 || len(q.Where.Filters) != 1 {
		t.Errorf("where = %+v", q.Where)
	}
	q2 := MustParse(`ASK WHERE { ?x <p> ?y }`)
	if !q2.Ask {
		t.Error("ASK WHERE not parsed")
	}
	if _, err := Parse(`CONSTRUCT { ?x <p> ?y } WHERE { ?x <p> ?y }`); err == nil {
		t.Error("CONSTRUCT should be rejected")
	}
}
