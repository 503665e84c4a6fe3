package dict

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"s2rdf/internal/rdf"
)

// TestRenderTermJSON checks the SPARQL-JSON term objects for every term
// kind, decoding them back through encoding/json so escaping is validated
// against the standard library, not against a second hand-rolled parser.
func TestRenderTermJSON(t *testing.T) {
	cases := []struct {
		term rdf.Term
		want map[string]string
	}{
		{rdf.NewIRI("http://example.org/a"), map[string]string{"type": "uri", "value": "http://example.org/a"}},
		{rdf.NewBlank("b0"), map[string]string{"type": "bnode", "value": "b0"}},
		// Plain literals carry the implicit xsd:string datatype, exactly as
		// the serving layer has always rendered them.
		{rdf.NewLiteral("plain"), map[string]string{"type": "literal", "value": "plain", "datatype": rdf.XSDString}},
		{rdf.NewLiteral(`quote " backslash \ newline` + "\n"), map[string]string{"type": "literal", "value": `quote " backslash \ newline` + "\n", "datatype": rdf.XSDString}},
		{rdf.NewLangLiteral("bonjour", "fr"), map[string]string{"type": "literal", "value": "bonjour", "datatype": rdf.XSDString, "xml:lang": "fr"}},
		{rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"), map[string]string{"type": "literal", "value": "42", "datatype": "http://www.w3.org/2001/XMLSchema#integer"}},
		{rdf.NewLiteral("héllo ☃"), map[string]string{"type": "literal", "value": "héllo ☃", "datatype": rdf.XSDString}},
	}
	for _, c := range cases {
		b := RenderTermJSON(c.term)
		var got map[string]string
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s rendered invalid JSON %q: %v", c.term, b, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s -> %q, want fields %v", c.term, b, c.want)
		}
		for k, v := range c.want {
			if got[k] != v {
				t.Fatalf("%s -> %q: field %q = %q, want %q", c.term, b, k, got[k], v)
			}
		}
	}
}

// TestTermJSONMemo checks the memo returns the identical pre-rendered slice
// on repeat lookups and that it matches the uncached rendering.
func TestTermJSONMemo(t *testing.T) {
	d := New()
	id := d.Encode(rdf.NewIRI("http://example.org/x"))
	first := d.TermJSON(id)
	second := d.TermJSON(id)
	if &first[0] != &second[0] {
		t.Fatal("repeat TermJSON did not return the memoized slice")
	}
	if want := RenderTermJSON(d.Decode(id)); !bytes.Equal(first, want) {
		t.Fatalf("TermJSON = %q, want %q", first, want)
	}
}

// TestDictReadersRaceEncodeGrowth reads through every lock-free entry point
// while a writer grows the dictionary across many moves of its position
// array and of the render memo, and across new arena pages: a reader must
// find every ID below the Len it observed, whole and rendered, and nothing
// else.
func TestDictReadersRaceEncodeGrowth(t *testing.T) {
	const terms = 20000
	want := make([]rdf.Term, terms)
	for i := range want {
		// 63 bytes after a one-byte length: every page holds a whole number
		// of terms and is filled exactly.
		want[i] = rdf.NewIRI(fmt.Sprintf("http://grow/%049d", i))
	}
	// A term longer than a page gets a page of its own, also as the first
	// term, before any page of short terms is open.
	const long = terms / 2
	want[0] = rdf.NewIRI("http://grow/first/" + strings.Repeat("x", maxPage))
	want[long] = rdf.NewIRI("http://grow/long/" + strings.Repeat("x", maxPage))
	d := New()
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for step := g; !done.Load(); step++ {
				n := d.Len()
				if n == 0 {
					continue
				}
				for _, id := range []ID{ID(n - 1), ID(step % n), ID(n / 2)} {
					if got := d.Decode(id); got != want[id] {
						t.Errorf("Decode(%d) = %q with Len %d, want %q", id, got, n, want[id])
						return
					}
					if got := d.TermJSON(id); !bytes.Equal(got, RenderTermJSON(want[id])) {
						t.Errorf("TermJSON(%d) = %q with Len %d", id, got, n)
						return
					}
				}
			}
		}(g)
	}
	for i, term := range want {
		if id := d.Encode(term); id != ID(i) {
			t.Fatalf("Encode #%d = %d", i, id)
		}
	}
	done.Store(true)
	wg.Wait()
	if d.Len() != terms {
		t.Fatalf("Len = %d, want %d", d.Len(), terms)
	}
	// The first long term fills page 0; the short terms after it start page
	// 1, which ends exactly at a term's end, and the next term starts page 2.
	// Each long term sits alone at the start of a page of its own size.
	if last, next := d.arena.pos[maxPage/64], d.arena.pos[maxPage/64+1]; last != 1<<offsetBits|(maxPage-64) || next != 2<<offsetBits {
		t.Fatalf("positions around the first short page's end: %#x, %#x", last, next)
	}
	for _, id := range []ID{0, long} {
		if p := d.arena.pos[id]; p&(maxPage-1) != 0 || len(d.arena.pages[p>>offsetBits]) != 3+len(want[id]) {
			t.Fatalf("long term %d at %#x on a page of %d bytes", id, p, len(d.arena.pages[p>>offsetBits]))
		}
	}
	if d.arena.pos[1] != 1<<offsetBits {
		t.Fatalf("first short term at %#x, want the start of page 1", d.arena.pos[1])
	}
	for i := range want {
		if got := d.Decode(ID(i)); got != want[i] {
			t.Fatalf("Decode(%d) = %.40q after growth, want %.40q", i, got, want[i])
		}
		if !bytes.Equal(d.TermJSON(ID(i)), RenderTermJSON(want[i])) {
			t.Fatalf("TermJSON(%d) wrong after growth", i)
		}
	}
}

// benchDict builds a dictionary with a spread of term kinds, mirroring
// what a result serializer renders.
func benchDict(n int) (*Dict, []ID) {
	d := New()
	ids := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		var t rdf.Term
		switch i % 3 {
		case 0:
			t = rdf.NewIRI(fmt.Sprintf("http://db.uwaterloo.ca/~galuc/wsdbm/Product%d", i))
		case 1:
			t = rdf.NewLiteral(fmt.Sprintf("review body %d with some text", i))
		default:
			t = rdf.NewTypedLiteral(fmt.Sprintf("%d", i), "http://www.w3.org/2001/XMLSchema#integer")
		}
		ids = append(ids, d.Encode(t))
	}
	return d, ids
}

// BenchmarkTermRenderUncached renders every term from scratch on each
// lookup — what the serializer paid before the memo existed.
func BenchmarkTermRenderUncached(b *testing.B) {
	d, ids := benchDict(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(RenderTermJSON(d.Decode(ids[i%len(ids)]))) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkTermRenderMemo hits the per-dictionary memo: decode + marshal
// are paid once per distinct term for the store's lifetime.
func BenchmarkTermRenderMemo(b *testing.B) {
	d, ids := benchDict(1024)
	for _, id := range ids {
		d.TermJSON(id) // prime
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(d.TermJSON(ids[i%len(ids)])) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// benchBytes keeps the parallel benchmarks' reads observable.
var benchBytes atomic.Int64

// BenchmarkDecodeParallel decodes from every CPU at once: the read path is
// two atomic loads, so it scales instead of serializing on a lock word.
func BenchmarkDecodeParallel(b *testing.B) {
	d, ids := benchDict(1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for i := 0; pb.Next(); i++ {
			n += len(d.Decode(ids[i%len(ids)]))
		}
		benchBytes.Add(int64(n))
	})
}

// BenchmarkTermJSONParallel hits the primed render memo from every CPU.
func BenchmarkTermJSONParallel(b *testing.B) {
	d, ids := benchDict(1024)
	for _, id := range ids {
		d.TermJSON(id)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for i := 0; pb.Next(); i++ {
			n += len(d.TermJSON(ids[i%len(ids)]))
		}
		benchBytes.Add(int64(n))
	})
}
