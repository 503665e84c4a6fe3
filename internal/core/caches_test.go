package core

import (
	"strings"
	"testing"
)

// TestNormalizeQueryEscapedQuotes: an escaped quote must not terminate the
// literal, so whitespace after it still belongs to the literal and is
// preserved byte-for-byte.
func TestNormalizeQueryEscapedQuotes(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		same bool
	}{
		// The \" keeps the literal open across the spaces.
		{`SELECT ?x WHERE { ?x <urn:p> "a\" b" }`,
			`SELECT ?x WHERE { ?x <urn:p> "a\"  b" }`, false},
		{`SELECT ?x WHERE { ?x <urn:p> 'a\' b' }`,
			`SELECT ?x WHERE { ?x <urn:p> 'a\'  b' }`, false},
		// An escaped backslash before the closing quote really closes it,
		// so the following whitespace is outside the literal and collapses.
		{`SELECT ?x WHERE { ?x <urn:p> "a\\" . }`,
			`SELECT ?x WHERE { ?x <urn:p> "a\\" .  }`, true},
		// Reformatting around an escaped-quote literal still unifies.
		{`SELECT ?x WHERE { ?x <urn:p> "say \"hi\"" }`,
			"SELECT  ?x\nWHERE { ?x <urn:p> \"say \\\"hi\\\"\" }", true},
	} {
		na, nb := NormalizeQuery(tc.a), NormalizeQuery(tc.b)
		if (na == nb) != tc.same {
			t.Errorf("NormalizeQuery(%q) = %q vs NormalizeQuery(%q) = %q, want same=%v",
				tc.a, na, tc.b, nb, tc.same)
		}
	}
}

// TestNormalizeQueryIRIFragments: '#' inside an IRIREF is an ordinary
// character; a '<' that does not open a well-formed IRIREF is the
// comparison operator, after which '#' comments as usual.
func TestNormalizeQueryIRIFragments(t *testing.T) {
	// The fragment (and everything after it in the IRI) survives.
	n := NormalizeQuery("SELECT ?x WHERE { ?x <http://ex.org/p#frag> ?y }")
	if !strings.Contains(n, "<http://ex.org/p#frag>") {
		t.Errorf("IRI fragment mangled: %q", n)
	}
	// FILTER(?x < 3) # comment — the '<' is an operator, the '#' comments.
	a := "SELECT ?x WHERE { ?x <urn:p> ?y . FILTER(?y < 3) } # trailing"
	b := "SELECT ?x WHERE { ?x <urn:p> ?y . FILTER(?y < 3) }"
	if NormalizeQuery(a) != NormalizeQuery(b) {
		t.Errorf("trailing comment after operator not stripped: %q vs %q",
			NormalizeQuery(a), NormalizeQuery(b))
	}
	// An unclosed '<...' (whitespace before any '>') is not an IRIREF, so
	// the '#' after it is a comment — the two inputs differ only in
	// commented-out text and must collide.
	c := "SELECT ?x WHERE { FILTER(?y < ?z) # one\n}"
	d := "SELECT ?x WHERE { FILTER(?y < ?z) # two\n}"
	if NormalizeQuery(c) != NormalizeQuery(d) {
		t.Errorf("comment after '<' operator preserved: %q vs %q",
			NormalizeQuery(c), NormalizeQuery(d))
	}
}

// TestNormalizeQueryUnterminatedLiteral: a literal that never closes runs
// to the end of the input. Normalization must stay total (no panic),
// preserve the tail byte-for-byte, and not collide with the terminated
// variant of the same query.
func TestNormalizeQueryUnterminatedLiteral(t *testing.T) {
	open := `SELECT ?x WHERE { ?x <urn:p> "never  closed`
	n := NormalizeQuery(open)
	if !strings.HasSuffix(n, `"never  closed`) {
		t.Errorf("unterminated literal tail altered: %q", n)
	}
	closed := `SELECT ?x WHERE { ?x <urn:p> "never  closed" }`
	if NormalizeQuery(open) == NormalizeQuery(closed) {
		t.Error("unterminated literal collides with terminated query")
	}
	// Trailing escape at end of input must not index past the string.
	if got := NormalizeQuery(`SELECT ?x WHERE { ?x <urn:p> "tail\`); got == "" {
		t.Error("trailing escape dropped the query")
	}
}

// TestNormalizeQueryQuoteKindCollision: two literals with identical content
// but different quote kinds are different cache keys (the lexer treats
// them identically, but colliding keys would be harmless only as long as
// that stays true — keep them apart).
func TestNormalizeQueryQuoteKindCollision(t *testing.T) {
	a := `SELECT ?x WHERE { ?x <urn:p> "v" }`
	b := `SELECT ?x WHERE { ?x <urn:p> 'v' }`
	if NormalizeQuery(a) == NormalizeQuery(b) {
		t.Errorf("differently quoted literals share a cache key: %q", NormalizeQuery(a))
	}
	// And content differing only in an escape sequence stays distinct.
	c := `SELECT ?x WHERE { ?x <urn:p> "a\nb" }`
	d := "SELECT ?x WHERE { ?x <urn:p> \"a\nb\" }"
	if NormalizeQuery(c) == NormalizeQuery(d) {
		t.Error("escaped and raw newline literals share a cache key")
	}
}
