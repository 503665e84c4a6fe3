package dict

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"s2rdf/internal/rdf"
	"s2rdf/internal/watdiv"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"),
		rdf.NewLiteral("x"),
		rdf.NewBlank("b0"),
	}
	var ids []ID
	for _, term := range terms {
		ids = append(ids, d.Encode(term))
	}
	for i, id := range ids {
		if got := d.Decode(id); got != terms[i] {
			t.Errorf("Decode(%d) = %q, want %q", id, got, terms[i])
		}
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestEncodeIdempotent(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("http://a"))
	b := d.Encode(rdf.NewIRI("http://a"))
	if a != b {
		t.Errorf("Encode not idempotent: %d vs %d", a, b)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestLookupUnknown(t *testing.T) {
	d := New()
	if id := d.Lookup(rdf.NewIRI("http://missing")); id != NoID {
		t.Errorf("Lookup unknown = %d, want NoID", id)
	}
	d.Encode(rdf.NewIRI("http://x"))
	if id := d.Lookup(rdf.NewIRI("http://x")); id != 0 {
		t.Errorf("Lookup = %d, want 0", id)
	}
}

func TestEncodeTripleDecodeTriple(t *testing.T) {
	d := New()
	tr := rdf.Triple{S: rdf.NewIRI("a"), P: rdf.NewIRI("p"), O: rdf.NewLiteral("v")}
	s, p, o := d.EncodeTriple(tr)
	if got := (rdf.Triple{S: d.Decode(s), P: d.Decode(p), O: d.Decode(o)}); got != tr {
		t.Errorf("round trip = %v, want %v", got, tr)
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	const n = 200
	var wg sync.WaitGroup
	results := make([][]ID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]ID, n)
			for i := 0; i < n; i++ {
				ids[i] = d.Encode(rdf.NewIRI(fmt.Sprintf("http://t/%d", i)))
			}
			results[g] = ids
		}(g)
	}
	wg.Wait()
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for g := 1; g < 8; g++ {
		for i := 0; i < n; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw id %d for term %d, goroutine 0 saw %d",
					g, results[g][i], i, results[0][i])
			}
		}
	}
}

// TestSaveLoad pins dict.txt: a saved dictionary loads to the same IDs and
// saves the same bytes, over terms that fill pages exactly, straddle them,
// and outgrow them, the first term among them.
func TestSaveLoad(t *testing.T) {
	long := rdf.NewLiteral(strings.Repeat("long ", maxPage))
	var grow []rdf.Term
	for i := 0; i < 3000; i++ {
		grow = append(grow,
			rdf.NewIRI(fmt.Sprintf("http://grow/%049d", i)),
			rdf.NewLangLiteral(fmt.Sprint(i, strings.Repeat("é", i%300)), "fr"))
	}
	for name, terms := range map[string][]rdf.Term{
		"long last":  append(slices.Clone(grow), long, rdf.NewBlank("b0")),
		"long first": append([]rdf.Term{long}, grow...),
	} {
		t.Run(name, func(t *testing.T) {
			d := New()
			for _, term := range terms {
				d.Encode(term)
			}
			for id, term := range terms {
				if got := d.Decode(ID(id)); got != term {
					t.Fatalf("Decode(%d) = %.40q, want %.40q", id, got, term)
				}
			}
			var first, second bytes.Buffer
			if err := d.Save(&first); err != nil {
				t.Fatal(err)
			}
			d2, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := d2.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("Save after Load wrote %d bytes that differ from the first Save's %d", second.Len(), first.Len())
			}
			if d2.Len() != len(terms) {
				t.Fatalf("loaded Len = %d, want %d", d2.Len(), len(terms))
			}
			for id, term := range terms {
				if d2.Lookup(term) != ID(id) || d2.Decode(ID(id)) != term {
					t.Fatalf("term %.40q: id %d, after reload Lookup %d", term, id, d2.Lookup(term))
				}
			}
		})
	}
}

// TestDictLoadRejectsRepeatedTerm: every line of dict.txt is a distinct
// term, so a repeat cannot come from Save and would leave one of its IDs
// unreachable through Lookup.
func TestDictLoadRejectsRepeatedTerm(t *testing.T) {
	_, err := Load(strings.NewReader("<urn:a>\n<urn:b>\n<urn:a>\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3 repeats the term of line 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestDictLoadAllocsPerPage: Load copies each line into the arena, so its
// allocations grow with the pages and the doublings of its position array
// and lookup table, not with the number of terms.
func TestDictLoadAllocsPerPage(t *testing.T) {
	const terms = 10000
	var buf bytes.Buffer
	for i := 0; i < terms; i++ {
		fmt.Fprintf(&buf, "<http://db.uwaterloo.ca/~galuc/wsdbm/User%d>\n", i)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > terms/100 {
		t.Fatalf("Load of %d terms made %.0f allocations, want at most %d", terms, allocs, terms/100)
	}
}

// TestDictMatchesMapReference holds Encode, EncodeTriples, Lookup, Decode
// and TermJSON to a plain map over every WatDiv scale-0.05 term, and Lookup
// of unknown terms to NoID, among them one whose 32-bit hash equals a
// present term's.
func TestDictMatchesMapReference(t *testing.T) {
	triples := watdiv.Generate(watdiv.Config{Scale: 0.05, Seed: 1}).Triples
	ref := make(map[rdf.Term]ID)
	var terms []rdf.Term
	d := New()
	for _, tr := range triples {
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			id, ok := ref[term]
			if !ok {
				id = ID(len(terms))
				ref[term] = id
				terms = append(terms, term)
			}
			if got := d.Encode(term); got != id {
				t.Fatalf("Encode(%q) = %d, want %d", term, got, id)
			}
		}
	}
	batched := New()
	s, p, o := make([]ID, len(triples)), make([]ID, len(triples)), make([]ID, len(triples))
	batched.EncodeTriples(triples, s, p, o)
	for i, tr := range triples {
		if s[i] != ref[tr.S] || p[i] != ref[tr.P] || o[i] != ref[tr.O] {
			t.Fatalf("EncodeTriples row %d = (%d %d %d), want (%d %d %d)", i, s[i], p[i], o[i], ref[tr.S], ref[tr.P], ref[tr.O])
		}
	}
	for _, dd := range []*Dict{d, batched} {
		if dd.Len() != len(terms) {
			t.Fatalf("Len = %d, want %d", dd.Len(), len(terms))
		}
		for id, term := range terms {
			if got := dd.Decode(ID(id)); got != term {
				t.Fatalf("Decode(%d) = %q, want %q", id, got, term)
			}
			if got := dd.Lookup(term); got != ID(id) {
				t.Fatalf("Lookup(%q) = %d, want %d", term, got, id)
			}
			if got := dd.TermJSON(ID(id)); !bytes.Equal(got, RenderTermJSON(term)) {
				t.Fatalf("TermJSON(%d) = %q", id, got)
			}
		}
	}
	for _, term := range terms {
		for _, u := range []rdf.Term{term + "x", term[:len(term)-1], " " + term} {
			if _, ok := ref[u]; !ok && d.Lookup(u) != NoID {
				t.Fatalf("Lookup of unknown %q = %d", u, d.Lookup(u))
			}
		}
	}

	// a's and b's probes pass the same slots, and after Encode(a) b's passes
	// a's on a hash match: only the bytes tell them apart.
	a, b := hashTwins(t, d, ref)
	n := ID(len(terms))
	if got := d.Encode(a); got != n {
		t.Fatalf("Encode(%q) = %d, want %d", a, got, n)
	}
	if got := d.Lookup(b); got != NoID {
		t.Fatalf("Lookup(%q), whose hash is %q's, = %d", b, a, got)
	}
	if got := d.Encode(b); got != n+1 {
		t.Fatalf("Encode(%q) = %d, want %d", b, got, n+1)
	}
	if d.Lookup(a) != n || d.Lookup(b) != n+1 || d.Decode(n) != a || d.Decode(n+1) != b {
		t.Fatalf("twins %q, %q: Lookup %d %d", a, b, d.Lookup(a), d.Lookup(b))
	}
}

// hashTwins returns two terms outside known whose hashes under d's seed are
// equal, by a birthday search over fresh IRIs (about 2^16 of them).
func hashTwins(t *testing.T, d *Dict, known map[rdf.Term]ID) (rdf.Term, rdf.Term) {
	seen := make(map[uint32]rdf.Term)
	for i := 0; i < 1<<22; i++ {
		u := rdf.NewIRI("urn:twin:" + strconv.Itoa(i))
		if _, ok := known[u]; ok {
			continue
		}
		h := d.hash(string(u))
		if v, ok := seen[h]; ok {
			return v, u
		}
		seen[h] = u
	}
	t.Fatal("no two of 2^22 terms share a 32-bit hash")
	return "", ""
}
