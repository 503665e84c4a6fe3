package core

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"s2rdf/internal/sparql"
)

// PlanCache is a concurrency-safe LRU of parsed queries keyed on normalized
// query text. Execution never mutates a parsed query, so one cached entry
// may back any number of concurrent executions.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *planEntry
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type planEntry struct {
	key string
	q   *sparql.Query
}

// NewPlanCache returns a cache holding at most capacity plans; capacity <= 0
// returns nil (caching disabled).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached plan for key, marking it most recently used.
func (pc *PlanCache) get(key string) (*sparql.Query, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	pc.order.MoveToFront(el)
	pc.hits.Add(1)
	return el.Value.(*planEntry).q, true
}

// put inserts a plan, evicting the least recently used entry at capacity.
func (pc *PlanCache) put(key string, q *sparql.Query) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).q = q
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&planEntry{key: key, q: q})
	if pc.order.Len() > pc.cap {
		oldest := pc.order.Back()
		pc.order.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
	}
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.order.Len()
}

// Stats returns the cumulative hit and miss counts.
func (pc *PlanCache) Stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// NormalizeQuery canonicalizes a query string for cache lookup: runs of
// whitespace outside quoted literals collapse to one space, '#' comments
// are dropped (they end at the newline, like the lexer's skipSpace), and
// the ends are trimmed, so reformatted copies of one query share a cache
// entry. Quoted literals (including escapes) and <IRI> references — where
// '#' is an ordinary character — are preserved byte-for-byte.
func NormalizeQuery(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	pendingSpace := false
	space := func() {
		if b.Len() > 0 {
			pendingSpace = true
		}
	}
	emit := func(ch byte) {
		if pendingSpace {
			b.WriteByte(' ')
			pendingSpace = false
		}
		b.WriteByte(ch)
	}
	for i := 0; i < len(src); i++ {
		ch := src[i]
		switch ch {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			space()
		case '#':
			// Comment to end of line; acts as whitespace.
			for i < len(src) && src[i] != '\n' {
				i++
			}
			space()
		case '"', '\'':
			emit(ch)
			i++
			for i < len(src) {
				b.WriteByte(src[i])
				if src[i] == '\\' && i+1 < len(src) {
					i++
					b.WriteByte(src[i])
				} else if src[i] == ch {
					break
				}
				i++
			}
		case '<':
			// An IRIREF (closes without whitespace, '<' or '"') is copied
			// verbatim so a '#' fragment inside it is not taken for a
			// comment; otherwise '<' is the comparison operator.
			if end := scanIRIRef(src, i); end > 0 {
				for ; i <= end; i++ {
					emit(src[i])
				}
				i = end
			} else {
				emit(ch)
			}
		default:
			emit(ch)
		}
	}
	return b.String()
}

// scanIRIRef returns the index of the '>' closing the IRIREF starting at
// src[start] == '<', or 0 when it does not close as one (mirrors the
// lexer's scanIRI).
func scanIRIRef(src string, start int) int {
	for i := start + 1; i < len(src); i++ {
		switch src[i] {
		case '>':
			return i
		case ' ', '\t', '\n', '\r', '<', '"':
			return 0
		}
	}
	return 0
}
