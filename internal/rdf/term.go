// Package rdf implements the RDF data model: terms, triples and the
// N-Triples serialization, as needed by the S2RDF reproduction.
//
// Terms are represented in a compact single-string encoding so that a global
// dictionary can map every distinct term to one integer ID. The encoding is
// the N-Triples surface syntax itself:
//
//	<http://example.org/x>       IRI
//	"chat"@en                    language-tagged literal
//	"42"^^<http://...#integer>   typed literal
//	_:b0                         blank node
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies an RDF term.
type Kind int

const (
	// IRI is an absolute IRI reference.
	IRI Kind = iota
	// Literal is a (possibly typed or language-tagged) literal.
	Literal
	// Blank is a blank node.
	Blank
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Common XSD datatype IRIs.
const (
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// RDFType is the rdf:type predicate IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Term is an RDF term in its N-Triples surface encoding.
type Term string

// NewIRI returns an IRI term for the given absolute IRI string.
func NewIRI(iri string) Term { return Term("<" + iri + ">") }

// NewBlank returns a blank-node term with the given label.
func NewBlank(label string) Term { return Term("_:" + label) }

// NewLiteral returns a plain string literal term.
func NewLiteral(lex string) Term { return Term(`"` + escapeLiteral(lex) + `"`) }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term(`"` + escapeLiteral(lex) + `"@` + lang)
}

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term(`"` + escapeLiteral(lex) + `"^^<` + datatype + ">")
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// Kind reports whether the term is an IRI, a literal or a blank node.
func (t Term) Kind() Kind {
	if len(t) == 0 {
		return Blank
	}
	switch t[0] {
	case '<':
		return IRI
	case '"':
		return Literal
	default:
		return Blank
	}
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind() == IRI }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind() == Literal }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind() == Blank }

// Value returns the IRI string, the literal lexical form, or the blank label.
func (t Term) Value() string {
	s := string(t)
	switch t.Kind() {
	case IRI:
		return strings.TrimSuffix(strings.TrimPrefix(s, "<"), ">")
	case Literal:
		body := s[1:]
		if i := lastUnescapedQuote(body); i >= 0 {
			return unescapeLiteral(body[:i])
		}
		return unescapeLiteral(strings.TrimSuffix(body, `"`))
	default:
		return strings.TrimPrefix(s, "_:")
	}
}

// Datatype returns the datatype IRI of a typed literal, XSDString for plain
// literals, and "" for non-literals.
func (t Term) Datatype() string {
	if !t.IsLiteral() {
		return ""
	}
	s := string(t)
	if i := strings.LastIndex(s, `"^^<`); i >= 0 && strings.HasSuffix(s, ">") {
		return s[i+4 : len(s)-1]
	}
	return XSDString
}

// Lang returns the language tag of a language-tagged literal, or "".
func (t Term) Lang() string {
	if !t.IsLiteral() {
		return ""
	}
	s := string(t)
	if i := strings.LastIndex(s, `"@`); i >= 0 && !strings.Contains(s[i:], ">") {
		return s[i+2:]
	}
	return ""
}

// Numeric returns the numeric value of the literal and true when the literal
// has a numeric datatype (or parses as a number).
func (t Term) Numeric() (float64, bool) {
	if !t.IsLiteral() {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value(), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// String returns the N-Triples encoding of the term.
func (t Term) String() string { return string(t) }

// Triple is an RDF statement (s, p, o).
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without the trailing dot).
func (t Triple) String() string {
	return string(t.S) + " " + string(t.P) + " " + string(t.O)
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func unescapeLiteral(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// lastUnescapedQuote finds the closing quote of a literal body (which starts
// just after the opening quote). Returns -1 if none.
func lastUnescapedQuote(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
