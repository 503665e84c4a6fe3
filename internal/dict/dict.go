// Package dict implements the global term dictionary used by the S2RDF
// reproduction. Every distinct RDF term is mapped to a dense uint32 ID so
// that all relational tables store fixed-width integer columns, mirroring
// the dictionary encoding Parquet applies in the paper's setup.
package dict

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"s2rdf/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense, starting at 0.
type ID = uint32

// NoID is returned by Lookup for unknown terms.
const NoID = ^uint32(0)

const (
	// offsetBits is the width of a term's offset within its page in a
	// position word; the page's index takes the other 32-offsetBits bits.
	offsetBits = 16
	// maxPage is the size of a page; a longer term gets a page of its own,
	// sized to it.
	maxPage = 1 << offsetBits
	// maxPages bounds the page index a position word can hold, so the arena
	// holds at most 4 GiB of term text.
	maxPages = 1 << (32 - offsetBits)
	// minTable is the lookup table's size when the dictionary is empty.
	minTable = 16
)

// Dict is a bidirectional, concurrency-safe term dictionary, laid out as
// one append-only term arena (after HDT's dictionary):
//
//   - term text lives in byte pages, each term as its length (a uvarint)
//     then its bytes. A page is never reallocated and its written bytes never
//     change, so Decode returns a string that views the page;
//   - pos holds one word per ID, its page index and its offset in the page;
//   - table is an open-addressing lookup index, at most half full, whose
//     slots hold a term's 32-bit hash beside its ID, so a probe compares
//     term bytes only when the hashes match.
//
// The term side is read without locks: Decode, Len and the TermJSON hit
// path load one atomically published view, so query workers decoding
// concurrently never contend on a shared cache line (a read lock is an
// atomic read-modify-write per call). Writers — EncodeTriples at load time,
// a batch at a time, and Encode of a new term when a query encodes an
// aggregate result — serialize on mu and publish as below.
type Dict struct {
	// mu guards the writer side: arena, fill, cur and table.
	mu    sync.RWMutex
	arena arena
	// fill is the number of bytes used in arena.pages[cur], the page new
	// terms go to; maxPage until the first such page is opened, and a term
	// longer than a page, which gets one of its own, leaves both as they are.
	fill, cur int
	table     []uint64 // hash<<32 | id+1 per used slot, 0 when empty
	seed      maphash.Seed

	// view is the published read side: the arena as of the last publish.
	// The writer only appends to pages, pos and the bytes past fill, so
	// everything a view holds is written before the view is stored and
	// never changes after; a reader that loads the view sees all of it.
	view atomic.Pointer[arena]

	// memo holds TermJSON renderings, one atomically published slot per
	// ID — the serving layer's term-render cache (tier 3). IDs are stable and
	// the rendering is a pure function of the term, so racing renders store
	// identical bytes. The table is allocated on first use and regrown
	// (under memoMu) to the position array's capacity, i.e. only when that
	// array itself moved; a slot stored into a table that was just replaced
	// is lost and rendered again later.
	memoMu sync.Mutex
	memo   atomic.Pointer[[]atomic.Pointer[[]byte]]
}

// arena is the term side of a dictionary: term id is at pos[id].
type arena struct {
	pages [][]byte
	pos   []uint32
}

// term returns term id, a view of its page.
func (a *arena) term(id ID) rdf.Term {
	p := a.pos[id]
	b := a.pages[p>>offsetBits][p&(maxPage-1):]
	if n := b[0]; n < 0x80 { // a one-byte length, as for most terms
		b = b[1 : 1+n]
	} else {
		n, k := binary.Uvarint(b)
		b = b[k : k+int(n)]
	}
	return rdf.Term(unsafe.String(unsafe.SliceData(b), len(b)))
}

// New returns an empty dictionary.
func New() *Dict {
	// No page is open: the first term that fits a page opens one.
	d := &Dict{fill: maxPage, table: make([]uint64, minTable), seed: maphash.MakeSeed()}
	d.view.Store(&arena{})
	return d
}

// hash is the 32-bit hash the lookup table keeps beside each ID.
func (d *Dict) hash(term string) uint32 {
	return uint32(maphash.String(d.seed, term))
}

// find returns term's ID, or NoID and the empty slot where a term of hash h
// goes. Callers hold mu.
func (d *Dict) find(term string, h uint32) (ID, int) {
	mask := len(d.table) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := d.table[i]
		if s == 0 {
			return NoID, i
		}
		if uint32(s>>32) == h {
			if id := ID(s) - 1; string(d.arena.term(id)) == term {
				return id, i
			}
		}
	}
}

// Encode returns the ID for term, assigning a fresh one if necessary.
func (d *Dict) Encode(term rdf.Term) ID {
	h := d.hash(string(term))
	d.mu.RLock()
	id, _ := d.find(string(term), h)
	d.mu.RUnlock()
	if id != NoID {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id = d.assign(string(term))
	d.publish()
	return id
}

// EncodeTriples encodes the subject, predicate and object of each triple of
// batch into s[i], p[i] and o[i]. New terms get IDs in the order Encode on
// each term in turn would give them, but the batch takes the write lock once
// and publishes its new terms to readers once, at the end. The arena keeps a
// copy of each new term, so the dictionary never pins a larger string a term
// may be a slice of, such as its input line.
func (d *Dict) EncodeTriples(batch []rdf.Triple, s, p, o []ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range batch {
		s[i] = d.assign(string(t.S))
		p[i] = d.assign(string(t.P))
		o[i] = d.assign(string(t.O))
	}
	d.publish()
}

// assign returns term's ID, copying term into the arena unpublished if it
// is new. Callers hold mu for writing (or own d).
func (d *Dict) assign(term string) ID {
	h := d.hash(term)
	id, slot := d.find(term, h)
	if id != NoID {
		return id
	}
	id = ID(len(d.arena.pos))
	if id == NoID {
		panic("dict: out of IDs")
	}
	d.arena.pos = append(d.arena.pos, d.store(term))
	d.table[slot] = uint64(h)<<32 | uint64(id+1)
	if 2*len(d.arena.pos) > len(d.table) {
		d.grow()
	}
	return id
}

// store copies term, its length first, into the arena and returns its
// position word.
func (d *Dict) store(term string) uint32 {
	var head [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(head[:], uint64(len(term)))
	need := k + len(term)
	page, off := len(d.arena.pages), 0
	switch {
	case need > maxPage:
		d.addPage(need)
	case d.fill+need > maxPage:
		d.addPage(maxPage)
		d.cur, d.fill = page, need
	default:
		page, off = d.cur, d.fill
		d.fill += need
	}
	b := d.arena.pages[page][off:]
	copy(b[copy(b, head[:k]):], term)
	return uint32(page)<<offsetBits | uint32(off)
}

// addPage appends a zeroed page of size bytes to the arena.
func (d *Dict) addPage(size int) {
	if len(d.arena.pages) == maxPages {
		panic("dict: term arena full")
	}
	d.arena.pages = append(d.arena.pages, make([]byte, size))
}

// grow doubles the lookup table, placing each slot by the hash it holds.
func (d *Dict) grow() {
	t := make([]uint64, 2*len(d.table))
	mask := len(t) - 1
	for _, s := range d.table {
		if s != 0 {
			i := int(s>>32) & mask
			for t[i] != 0 {
				i = (i + 1) & mask
			}
			t[i] = s
		}
	}
	d.table = t
}

// publish makes every term assigned so far visible to lock-free readers.
// Callers hold mu (or own d).
func (d *Dict) publish() {
	v := d.arena
	d.view.Store(&v)
}

// Lookup returns the ID for term without assigning; NoID if unknown.
func (d *Dict) Lookup(term rdf.Term) ID {
	h := d.hash(string(term))
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, _ := d.find(string(term), h)
	return id
}

// Decode returns the term for id. It panics on out-of-range IDs, which
// indicate internal corruption rather than user error.
func (d *Dict) Decode(id ID) rdf.Term {
	return d.view.Load().term(id)
}

// Len returns the number of distinct terms.
func (d *Dict) Len() int {
	return len(d.view.Load().pos)
}

// EncodeTriple encodes all three components of t.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// Save writes the dictionary (one term per line, in ID order).
func (d *Dict) Save(w io.Writer) error {
	a := d.view.Load()
	bw := bufio.NewWriter(w)
	for id := range a.pos {
		bw.WriteString(string(a.term(ID(id))))
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dictionary previously written by Save, each line straight
// into the arena: it allocates per page, not per term.
func Load(r io.Reader) (*Dict, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		// The string views the scanner's buffer only for assign, which
		// copies a new term into the arena.
		b := sc.Bytes()
		next := ID(len(d.arena.pos))
		if id := d.assign(unsafe.String(unsafe.SliceData(b), len(b))); id != next {
			return nil, fmt.Errorf("dict: line %d repeats the term of line %d", next+1, id+1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d.publish()
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
			// Decode succeeded, so the published positions hold id.
			grown := make([]atomic.Pointer[[]byte], cap(d.view.Load().pos))
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
