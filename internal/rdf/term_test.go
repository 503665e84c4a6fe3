package rdf

import (
	"testing"
	"testing/quick"
)

func TestTermKinds(t *testing.T) {
	cases := []struct {
		term Term
		kind Kind
	}{
		{NewIRI("http://example.org/a"), IRI},
		{NewLiteral("hello"), Literal},
		{NewLangLiteral("chat", "fr"), Literal},
		{NewTypedLiteral("42", XSDInteger), Literal},
		{NewBlank("b0"), Blank},
	}
	for _, c := range cases {
		if got := c.term.Kind(); got != c.kind {
			t.Errorf("Kind(%q) = %v, want %v", c.term, got, c.kind)
		}
	}
}

func TestKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || Blank.String() != "Blank" {
		t.Errorf("unexpected kind names: %v %v %v", IRI, Literal, Blank)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", Kind(9).String())
	}
}

func TestTermValue(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/a"), "http://example.org/a"},
		{NewLiteral("hello"), "hello"},
		{NewLangLiteral("chat", "fr"), "chat"},
		{NewTypedLiteral("42", XSDInteger), "42"},
		{NewBlank("b7"), "b7"},
		{NewLiteral(`quote " and \ slash`), `quote " and \ slash`},
	}
	for _, c := range cases {
		if got := c.term.Value(); got != c.want {
			t.Errorf("Value(%q) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermDatatypeAndLang(t *testing.T) {
	if dt := NewTypedLiteral("42", XSDInteger).Datatype(); dt != XSDInteger {
		t.Errorf("Datatype = %q", dt)
	}
	if dt := NewLiteral("x").Datatype(); dt != XSDString {
		t.Errorf("plain literal Datatype = %q", dt)
	}
	if dt := NewIRI("http://x").Datatype(); dt != "" {
		t.Errorf("IRI Datatype = %q", dt)
	}
	if lang := NewLangLiteral("chat", "fr").Lang(); lang != "fr" {
		t.Errorf("Lang = %q", lang)
	}
	if lang := NewLiteral("x").Lang(); lang != "" {
		t.Errorf("plain Lang = %q", lang)
	}
}

func TestTermNumeric(t *testing.T) {
	if v, ok := NewInteger(42).Numeric(); !ok || v != 42 {
		t.Errorf("Numeric(42) = %v, %v", v, ok)
	}
	if v, ok := NewTypedLiteral("3.5", XSDDecimal).Numeric(); !ok || v != 3.5 {
		t.Errorf("Numeric(3.5) = %v, %v", v, ok)
	}
	if _, ok := NewLiteral("abc").Numeric(); ok {
		t.Error("Numeric(abc) should fail")
	}
	if _, ok := NewIRI("http://x").Numeric(); ok {
		t.Error("Numeric(IRI) should fail")
	}
}

func TestLiteralEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		term := NewLiteral(s)
		return term.Value() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{NewIRI("a"), NewIRI("p"), NewLiteral("x")}
	if got := tr.String(); got != `<a> <p> "x"` {
		t.Errorf("String = %q", got)
	}
}

func TestIsHelpers(t *testing.T) {
	if !NewBlank("b").IsBlank() || NewIRI("x").IsBlank() {
		t.Error("IsBlank wrong")
	}
	if !NewIRI("x").IsIRI() || NewLiteral("x").IsIRI() {
		t.Error("IsIRI wrong")
	}
	if !NewLiteral("x").IsLiteral() || NewBlank("b").IsLiteral() {
		t.Error("IsLiteral wrong")
	}
}
