package sparql

import (
	"strings"
	"testing"

	"s2rdf/internal/rdf"
)

func evalFilter(t *testing.T, src string, b Binding) bool {
	t.Helper()
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER ` + src + ` }`)
	return q.Where.Filters[0].Eval(b)
}

func TestExprStringComparisons(t *testing.T) {
	cases := []struct {
		expr string
		b    Binding
		want bool
	}{
		{`(?y < "m")`, Binding{"y": rdf.NewLiteral("abc")}, true},
		{`(?y > "m")`, Binding{"y": rdf.NewLiteral("abc")}, false},
		{`(?y <= "abc")`, Binding{"y": rdf.NewLiteral("abc")}, true},
		{`(?y >= "abd")`, Binding{"y": rdf.NewLiteral("abc")}, false},
		{`(?y < <urn:x>)`, Binding{"y": rdf.NewIRI("urn:a")}, false}, // IRIs have no order
	}
	for _, c := range cases {
		if got := evalFilter(t, c.expr, c.b); got != c.want {
			t.Errorf("%s with %v = %v, want %v", c.expr, c.b, got, c.want)
		}
	}
}

func TestExprNumericComparisonOperators(t *testing.T) {
	b := Binding{"y": rdf.NewInteger(5)}
	cases := map[string]bool{
		`(?y = 5)`: true, `(?y != 5)`: false,
		`(?y < 6)`: true, `(?y <= 5)`: true,
		`(?y > 4)`: true, `(?y >= 6)`: false,
	}
	for expr, want := range cases {
		if got := evalFilter(t, expr, b); got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestExprBooleanComparison(t *testing.T) {
	if !evalFilter(t, `(true = true)`, Binding{}) {
		t.Error("true = true failed")
	}
	if !evalFilter(t, `(true != false)`, Binding{}) {
		t.Error("true != false failed")
	}
	if evalFilter(t, `(true < false)`, Binding{}) {
		t.Error("boolean ordering should be an error (false)")
	}
}

func TestExprStrAndLangFunctions(t *testing.T) {
	if !evalFilter(t, `(str(?y) = "42")`, Binding{"y": rdf.NewInteger(42)}) {
		t.Error("str(42) != \"42\"")
	}
	if !evalFilter(t, `(str(?y) = "urn:a")`, Binding{"y": rdf.NewIRI("urn:a")}) {
		t.Error("str(IRI) failed")
	}
	if !evalFilter(t, `(lang(?y) = "fr")`, Binding{"y": rdf.NewLangLiteral("chat", "fr")}) {
		t.Error("lang failed")
	}
	if !evalFilter(t, `(lang(?y) = "")`, Binding{"y": rdf.NewLiteral("x")}) {
		t.Error("lang of plain literal should be empty")
	}
}

func TestExprIsBlank(t *testing.T) {
	if !evalFilter(t, `isBlank(?y)`, Binding{"y": rdf.NewBlank("b0")}) {
		t.Error("isBlank(blank) = false")
	}
	if evalFilter(t, `isBlank(?y)`, Binding{"y": rdf.NewIRI("urn:a")}) {
		t.Error("isBlank(IRI) = true")
	}
	if evalFilter(t, `isBlank(?y)`, Binding{}) {
		t.Error("isBlank(unbound) = true")
	}
}

func TestExprEffectiveBooleanValue(t *testing.T) {
	// A bare variable as the filter: EBV of literals and numbers.
	if !evalFilter(t, `(?y)`, Binding{"y": rdf.NewLiteral("non-empty")}) {
		t.Error("EBV of non-empty literal should be true")
	}
	if evalFilter(t, `(?y)`, Binding{"y": rdf.NewLiteral("")}) {
		t.Error("EBV of empty literal should be false")
	}
	if evalFilter(t, `(?y)`, Binding{"y": rdf.NewInteger(0)}) {
		t.Error("EBV of 0 should be false")
	}
	if !evalFilter(t, `(?y)`, Binding{"y": rdf.NewInteger(7)}) {
		t.Error("EBV of 7 should be true")
	}
	if evalFilter(t, `(?y)`, Binding{"y": rdf.NewIRI("urn:x")}) {
		t.Error("EBV of IRI should be false (type error)")
	}
}

func TestExprArithmeticSubtractionAndErrors(t *testing.T) {
	if !evalFilter(t, `(?y - 2 = 3)`, Binding{"y": rdf.NewInteger(5)}) {
		t.Error("5-2=3 failed")
	}
	if evalFilter(t, `(?y + 1 = 2)`, Binding{"y": rdf.NewLiteral("nan")}) {
		t.Error("arithmetic on non-number should be an error")
	}
	// Plain literals with numeric lexical forms compare numerically
	// (value-based comparison, applied uniformly by every engine here).
	if !evalFilter(t, `(?y = "5")`, Binding{"y": rdf.NewInteger(5)}) {
		t.Error(`5 = "5" should hold under value comparison`)
	}
	if evalFilter(t, `(?y = "five")`, Binding{"y": rdf.NewInteger(5)}) {
		t.Error(`5 = "five" should be false`)
	}
}

func TestExprRegexOnVariablePattern(t *testing.T) {
	// Pattern supplied through a variable cannot be precompiled; the
	// engine treats it as an error (false).
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER regex(?y, ?y) }`)
	if q.Where.Filters[0].Eval(Binding{"y": rdf.NewLiteral("a")}) {
		t.Error("regex with variable pattern should be an error")
	}
	// Flags argument accepted (and ignored).
	q2 := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER regex(?y, "^A", "i") }`)
	if !q2.Where.Filters[0].Eval(Binding{"y": rdf.NewLiteral("ABC")}) {
		t.Error("regex with flags failed")
	}
}

func TestExprStringRendering(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y >= 18 && ?y < 65) }`)
	s := q.Where.Filters[0].String()
	if !strings.Contains(s, "18") || !strings.Contains(s, "65") {
		t.Errorf("filter String() = %q", s)
	}
}

func TestExprNotEqualsOnBooleans(t *testing.T) {
	if !evalFilter(t, `(!(?y = 1) && ?y = 2)`, Binding{"y": rdf.NewInteger(2)}) {
		t.Error("composite negation failed")
	}
}

func TestSelectVarsStarWithGroups(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?a <p> ?b . OPTIONAL { ?b <q> ?c } }`)
	vars := q.SelectVars()
	if len(vars) != 3 {
		t.Errorf("SelectVars = %v", vars)
	}
}

func TestParseSingleQuotedStrings(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> 'single' . ?x <q> 'it\'s' . }`)
	if q.Where.Triples[0].O.Term != rdf.NewLiteral("single") {
		t.Errorf("single-quoted = %q", q.Where.Triples[0].O.Term)
	}
	if q.Where.Triples[1].O.Term.Value() != "it's" {
		t.Errorf("escaped quote = %q", q.Where.Triples[1].O.Term.Value())
	}
}

func TestParseCommentsSkipped(t *testing.T) {
	q := MustParse(`# leading comment
		SELECT * WHERE {
			?x <p> ?y . # trailing comment
		}`)
	if len(q.Where.Triples) != 1 {
		t.Errorf("triples = %d", len(q.Where.Triples))
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y > -5) }`)
	if !q.Where.Filters[0].Eval(Binding{"y": rdf.NewInteger(-3)}) {
		t.Error("-3 > -5 failed")
	}
	q2 := MustParse(`SELECT * WHERE { ?x <p> -2.5 . }`)
	if q2.Where.Triples[0].O.Term != rdf.NewTypedLiteral("-2.5", rdf.XSDDecimal) {
		t.Errorf("negative decimal = %q", q2.Where.Triples[0].O.Term)
	}
}

func TestParseOrderByAscKeyword(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x <p> ?y } ORDER BY ASC(?x)`)
	if len(q.OrderBy) != 1 || q.OrderBy[0].Desc {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
}

func TestParseBlankNodeSubject(t *testing.T) {
	q := MustParse(`SELECT * WHERE { _:b0 <p> ?y . }`)
	if q.Where.Triples[0].S.Term != rdf.NewBlank("b0") {
		t.Errorf("blank subject = %q", q.Where.Triples[0].S.Term)
	}
}

func TestParseIntErrors(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x <p> ?y } LIMIT abc`); err == nil {
		t.Error("LIMIT abc should fail")
	}
	if _, err := Parse(`SELECT ?x WHERE { ?x <p> ?y } OFFSET`); err == nil {
		t.Error("bare OFFSET should fail")
	}
	// The grammar's INTEGER is unsigned: a negative count would read as
	// "no LIMIT" or "no OFFSET", and a decimal one was truncated.
	for _, mod := range []string{"LIMIT -1", "OFFSET -3", "LIMIT -0", "LIMIT 2.5", "OFFSET 1.0", "LIMIT 9223372036854775808"} {
		if _, err := Parse(`SELECT ?x WHERE { ?x <p> ?y } ` + mod); err == nil {
			t.Errorf("%s should fail", mod)
		}
	}
}

func TestParsePNameInFilter(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y = wsdbm:User0) }`)
	u0 := rdf.NewIRI("http://db.uwaterloo.ca/~galuc/wsdbm/User0")
	if !q.Where.Filters[0].Eval(Binding{"y": u0}) {
		t.Error("prefixed name in filter failed")
	}
	if _, err := Parse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y = nope:x) }`); err == nil {
		t.Error("unknown prefix in filter should fail")
	}
}

func TestParseIRIInFilterExpression(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <p> ?y . FILTER (?y != <urn:z>) }`)
	if !q.Where.Filters[0].Eval(Binding{"y": rdf.NewIRI("urn:other")}) {
		t.Error("IRI inequality failed")
	}
}
