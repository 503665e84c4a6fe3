// Package dict implements the global term dictionary used by the S2RDF
// reproduction. Every distinct RDF term is mapped to a dense uint32 ID so
// that all relational tables store fixed-width integer columns, mirroring
// the dictionary encoding Parquet applies in the paper's setup.
package dict

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"s2rdf/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense, starting at 0.
type ID = uint32

// NoID is returned by Lookup for unknown terms.
const NoID = ^uint32(0)

// Dict is a bidirectional, concurrency-safe term dictionary. The term
// side is read without locks: Decode, Len and the TermJSON hit path are
// atomic loads only, so query workers decoding concurrently never contend
// on a shared cache line (a read lock is an atomic read-modify-write per
// call). Writers — Encode of a new term, at load time and when a query
// encodes an aggregate result — serialize on mu and publish as below.
type Dict struct {
	// mu guards ids and the writer-side view of terms.
	mu    sync.RWMutex
	ids   map[rdf.Term]ID
	terms []rdf.Term

	// The published read side. terms is append-only, so slot i of a backing
	// array never changes once written: a writer fills the slot, republishes
	// the array (resliced to its full capacity) only when append moved it,
	// and then stores n = i+1. A reader loads n first, then the array: every
	// id < n was written before the n it observed, and the array it then
	// loads is at least as new, so it holds that slot.
	n    atomic.Uint32
	snap atomic.Pointer[[]rdf.Term]

	// memo holds TermJSON renderings, one atomically published slot per
	// ID — the serving layer's term-render cache (tier 3). IDs are stable and
	// the rendering is a pure function of the term, so racing renders store
	// identical bytes. The table is allocated on first use and regrown
	// (under memoMu) to the term array's capacity, i.e. only when that array
	// itself moved; a slot stored into a table that was just replaced is
	// lost and rendered again later.
	memoMu sync.Mutex
	memo   atomic.Pointer[[]atomic.Pointer[[]byte]]
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{ids: make(map[rdf.Term]ID)}
}

// Encode returns the ID for term, assigning a fresh one if necessary.
func (d *Dict) Encode(term rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.ids[term]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.ids[term] = id
	moved := len(d.terms) == cap(d.terms)
	d.terms = append(d.terms, term)
	d.publish(moved)
	return id
}

// publish makes every term appended so far visible to lock-free readers;
// moved says the backing array changed. Callers hold mu (or own d).
func (d *Dict) publish(moved bool) {
	if moved {
		full := d.terms[:cap(d.terms)]
		d.snap.Store(&full)
	}
	d.n.Store(uint32(len(d.terms)))
}

// Lookup returns the ID for term without assigning; NoID if unknown.
func (d *Dict) Lookup(term rdf.Term) ID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id, ok := d.ids[term]; ok {
		return id
	}
	return NoID
}

// published returns the terms visible to readers: an immutable prefix.
func (d *Dict) published() []rdf.Term {
	n := d.n.Load()
	if n == 0 {
		return nil
	}
	return (*d.snap.Load())[:n]
}

// Decode returns the term for id. It panics on out-of-range IDs, which
// indicate internal corruption rather than user error.
func (d *Dict) Decode(id ID) rdf.Term {
	return d.published()[id]
}

// Len returns the number of distinct terms.
func (d *Dict) Len() int {
	return int(d.n.Load())
}

// EncodeTriple encodes all three components of t.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// DecodeTriple reverses EncodeTriple.
func (d *Dict) DecodeTriple(s, p, o ID) rdf.Triple {
	return rdf.Triple{S: d.Decode(s), P: d.Decode(p), O: d.Decode(o)}
}

// Save writes the dictionary (one term per line, in ID order).
func (d *Dict) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range d.published() {
		if _, err := fmt.Fprintln(bw, string(t)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dictionary previously written by Save.
func Load(r io.Reader) (*Dict, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		term := rdf.Term(sc.Text())
		id := ID(len(d.terms))
		d.ids[term] = id
		d.terms = append(d.terms, term)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d.publish(true)
	return d, nil
}

// TermJSON returns the term's SPARQL 1.1 JSON results object — e.g.
// {"type":"uri","value":"http://…"} — as pre-serialized bytes, memoized per
// ID. Streaming result encoders concatenate these instead of re-escaping
// the same IRIs and literals on every row, which speeds every query whose
// result repeats terms (joins repeat them by construction). The returned
// slice is shared and must not be modified.
func (d *Dict) TermJSON(id ID) []byte {
	if memo := d.memo.Load(); memo != nil && int(id) < len(*memo) {
		if b := (*memo)[id].Load(); b != nil {
			return *b
		}
	}
	return d.renderTermJSON(id)
}

// renderTermJSON is TermJSON's miss path: render, then memoize.
func (d *Dict) renderTermJSON(id ID) []byte {
	b := RenderTermJSON(d.Decode(id))
	memo := d.memo.Load()
	if memo == nil || int(id) >= len(*memo) {
		d.memoMu.Lock()
		if memo = d.memo.Load(); memo == nil || int(id) >= len(*memo) {
			// Decode succeeded, so the published array holds id.
			grown := make([]atomic.Pointer[[]byte], len(*d.snap.Load()))
			if memo != nil {
				for i := range *memo {
					grown[i].Store((*memo)[i].Load())
				}
			}
			memo = &grown
			d.memo.Store(memo)
		}
		d.memoMu.Unlock()
	}
	(*memo)[id].Store(&b)
	return b
}

// RenderTermJSON serializes one term's SPARQL-JSON object without the memo
// — the uncached rendering TermJSON amortizes (exported so benchmarks can
// measure the memo's win directly).
func RenderTermJSON(t rdf.Term) []byte {
	appendStr := func(dst []byte, s string) []byte {
		q, _ := json.Marshal(s)
		return append(dst, q...)
	}
	b := make([]byte, 0, len(t)+32)
	switch {
	case t.IsIRI():
		b = append(b, `{"type":"uri","value":`...)
		b = appendStr(b, t.Value())
	case t.IsBlank():
		b = append(b, `{"type":"bnode","value":`...)
		b = appendStr(b, t.Value())
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendStr(b, t.Value())
		if dt := t.Datatype(); dt != "" {
			b = append(b, `,"datatype":`...)
			b = appendStr(b, dt)
		}
		if lang := t.Lang(); lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendStr(b, lang)
		}
	}
	return append(b, '}')
}

// SortedIDs returns the given IDs sorted by their decoded term text. Used to
// produce deterministic ORDER BY output for terms.
func (d *Dict) SortedIDs(ids []ID) []ID {
	out := make([]ID, len(ids))
	copy(out, ids)
	terms := d.published()
	sort.Slice(out, func(i, j int) bool { return terms[out[i]] < terms[out[j]] })
	return out
}
