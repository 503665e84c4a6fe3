package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseTriple parses one N-Triples line (with or without the trailing dot).
// Comment and blank lines return ok=false with a nil error.
func ParseTriple(line string) (Triple, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Triple{}, false, nil
	}
	line = strings.TrimSuffix(line, ".")
	line = strings.TrimRight(line, " \t")

	s, rest, err := scanTerm(line)
	if err != nil {
		return Triple{}, false, fmt.Errorf("subject: %w", err)
	}
	p, rest, err := scanTerm(rest)
	if err != nil {
		return Triple{}, false, fmt.Errorf("predicate: %w", err)
	}
	o, rest, err := scanTerm(rest)
	if err != nil {
		return Triple{}, false, fmt.Errorf("object: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return Triple{}, false, fmt.Errorf("trailing content %q", rest)
	}
	return Triple{S: s, P: p, O: o}, true, nil
}

// scanTerm consumes one term from the front of s and returns it along with
// the remaining input.
func scanTerm(s string) (Term, string, error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return "", "", fmt.Errorf("unexpected end of statement")
	}
	switch s[0] {
	case '<':
		i := strings.IndexByte(s, '>')
		if i < 0 {
			return "", "", fmt.Errorf("unterminated IRI in %q", s)
		}
		return Term(s[:i+1]), s[i+1:], nil
	case '_':
		i := strings.IndexAny(s, " \t")
		if i < 0 {
			i = len(s)
		}
		if !strings.HasPrefix(s, "_:") || i < 3 {
			return "", "", fmt.Errorf("malformed blank node in %q", s)
		}
		return Term(s[:i]), s[i:], nil
	case '"':
		end := lastUnescapedQuote(s[1:])
		if end < 0 {
			return "", "", fmt.Errorf("unterminated literal in %q", s)
		}
		i := end + 2 // index just past the closing quote
		// Optional language tag or datatype.
		switch {
		case strings.HasPrefix(s[i:], "@"):
			j := i + 1
			for j < len(s) && (isAlnum(s[j]) || s[j] == '-') {
				j++
			}
			return Term(s[:j]), s[j:], nil
		case strings.HasPrefix(s[i:], "^^<"):
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return "", "", fmt.Errorf("unterminated datatype IRI in %q", s)
			}
			return Term(s[:i+j+1]), s[i+j+1:], nil
		default:
			return Term(s[:i]), s[i:], nil
		}
	default:
		return "", "", fmt.Errorf("unexpected term start %q", s)
	}
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// Reader streams triples from N-Triples input.
type Reader struct {
	scan *bufio.Scanner
	line int
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{scan: sc}
}

// Read returns the next triple. It returns io.EOF at end of input.
func (r *Reader) Read() (Triple, error) {
	for r.scan.Scan() {
		r.line++
		t, ok, err := ParseTriple(r.scan.Text())
		if err != nil {
			return Triple{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		if ok {
			return t, nil
		}
	}
	if err := r.scan.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll reads every triple from r into a slice.
func ReadAll(r io.Reader) ([]Triple, error) {
	rd := NewReader(r)
	var out []Triple
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// Writer serializes triples as N-Triples.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one triple.
func (w *Writer) Write(t Triple) error {
	_, err := fmt.Fprintf(w.w, "%s %s %s .\n", t.S, t.P, t.O)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Prefixes maps prefix labels to IRI namespace strings.
type Prefixes map[string]string

// commonPrefixes is the one shared table CommonPrefixes returns, built once.
var commonPrefixes = Prefixes{
	"rdf":   "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs":  "http://www.w3.org/2000/01/rdf-schema#",
	"xsd":   "http://www.w3.org/2001/XMLSchema#",
	"foaf":  "http://xmlns.com/foaf/",
	"dc":    "http://purl.org/dc/terms/",
	"gr":    "http://purl.org/goodrelations/",
	"gn":    "http://www.geonames.org/ontology#",
	"mo":    "http://purl.org/ontology/mo/",
	"og":    "http://ogp.me/ns#",
	"rev":   "http://purl.org/stuff/rev#",
	"sorg":  "http://schema.org/",
	"wsdbm": "http://db.uwaterloo.ca/~galuc/wsdbm/",
}

// CommonPrefixes returns the prefix table used by the WatDiv workloads and
// examples in the paper. The table is shared and read-only: a caller that
// needs to add prefixes clones it first (maps.Clone).
func CommonPrefixes() Prefixes { return commonPrefixes }

// Expand resolves a prefixed name like "wsdbm:follows" to a full IRI term.
// It returns ok=false when the prefix is unknown.
func (p Prefixes) Expand(qname string) (Term, bool) {
	i := strings.IndexByte(qname, ':')
	if i < 0 {
		return "", false
	}
	ns, ok := p[qname[:i]]
	if !ok {
		return "", false
	}
	return NewIRI(ns + qname[i+1:]), true
}

// Shrink renders an IRI term using the shortest matching prefix, falling
// back to the full N-Triples form.
func (p Prefixes) Shrink(t Term) string {
	if !t.IsIRI() {
		return string(t)
	}
	iri := t.Value()
	best, bestNS := "", ""
	for pre, ns := range p {
		if strings.HasPrefix(iri, ns) && len(ns) > len(bestNS) {
			best, bestNS = pre, ns
		}
	}
	if best == "" {
		return string(t)
	}
	return best + ":" + iri[len(bestNS):]
}
