package dict

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"s2rdf/internal/rdf"
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

func TestSaveLoad(t *testing.T) {
	d := New()
	for i := 0; i < 50; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://t/%d", i)))
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("loaded Len = %d, want %d", d2.Len(), d.Len())
	}
	for i := 0; i < 50; i++ {
		term := rdf.NewIRI(fmt.Sprintf("http://t/%d", i))
		if d2.Lookup(term) != d.Lookup(term) {
			t.Errorf("term %q: id mismatch after reload", term)
		}
	}
}
