package core

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"s2rdf/internal/sparql"
)

// lru is a concurrency-safe LRU map from string keys to values, counting
// lookup hits and misses. A nil *lru is a disabled cache; callers check for
// nil before use.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns a cache holding at most capacity entries; capacity <= 0
// returns nil (caching disabled).
func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		return nil
	}
	return &lru[V]{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the value cached for key, marking it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts a value, evicting the least recently used entry at capacity.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len returns the number of cached entries.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the cumulative hit and miss counts.
func (c *lru[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// PlanCache is an LRU of parsed queries keyed on normalized query text.
// Execution never mutates a parsed query, so one cached entry may back any
// number of concurrent executions.
type PlanCache = lru[*sparql.Query]

// NewPlanCache returns a cache holding at most capacity plans; capacity <= 0
// returns nil (caching disabled).
func NewPlanCache(capacity int) *PlanCache { return newLRU[*sparql.Query](capacity) }

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
