// Package cache implements the serving layer's full-result cache.
// Concurrent identical misses are not coalesced: each executes and fills
// the same key (Put replaces the entry), while admission bounds how many run
// at once.
//
// The design leans on two invariants the rest of the system already
// maintains: a store's data and statistics are immutable once it is loaded
// (every ExtVP reduction is built at load), and the serialized SPARQL-JSON
// body of a query is a pure function of (store, mode, normalized query
// text). A cache entry is therefore keyed by exactly that tuple and stays
// valid until LRU eviction.
//
// The cache is byte-accounted, not entry-counted: the budget is the sum of
// body bytes plus per-entry bookkeeping, and the least recently used entry
// is evicted when an insert would exceed it.
package cache

import (
	"container/list"
	"sync"
)

// Key identifies one cacheable result: a store, a layout mode and the
// normalized query text. Two requests with equal Keys are guaranteed the same
// serialized result body.
type Key struct {
	Store string
	Mode  string
	Query string // normalized query text (core.NormalizeQuery)
}

// Entry is one cached result: the pre-serialized SPARQL-JSON body. A hit
// replays the body only; the headers describing the work that produced it
// belong to that request, not to the hit.
type Entry struct {
	// Body is the complete serialized response body. Hit paths write it to
	// the wire without touching the engine; it must never be mutated.
	Body []byte
}

// size is the entry's byte account: body and the lookup key's query text
// (the dominant key component).
func (e *Entry) size(k Key) int64 {
	return int64(len(e.Body)) + int64(len(k.Query)) + entryOverhead
}

// entryOverhead approximates the fixed per-entry bookkeeping cost (map and
// list nodes, the Entry struct itself) charged against the byte budget.
const entryOverhead = 256

// Stats is a point-in-time snapshot of a ResultCache, surfaced per store in
// the healthz "result_cache" record — the "cached lane" the serving layer
// meters hits into.
type Stats struct {
	// Hits counts requests served entirely from the cache (no admission,
	// no execution). Misses counts lookups that fell through to execution.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Fills counts successful inserts; Rejected counts results that passed
	// the cost gate but exceeded the per-entry byte cap.
	Fills    int64 `json:"fills"`
	Rejected int64 `json:"rejected_too_large"`
	// Evictions counts LRU evictions.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes are the current gauges; Capacity is the budget.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity"`
	// Coalesced is always 0: nothing coalesces identical misses. It stays
	// only because the serving benchmark (benchmark/run.go) still prints it.
	Coalesced int64 `json:"coalesced"`
}

// ResultCache is a concurrency-safe, byte-accounted LRU of serialized query
// results. A nil *ResultCache is valid and permanently empty (caching
// disabled): Get always misses without counting, Put is a no-op.
type ResultCache struct {
	mu       sync.Mutex
	capacity int64
	maxEntry int64
	bytes    int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[Key]*list.Element

	hits, misses, fills, rejected, evictions int64
}

type cacheEntry struct {
	key  Key
	ent  *Entry
	size int64
}

// New returns a cache with the given byte budget. maxEntry caps one entry's
// accounted size; <= 0 selects capacity/8 (so a single giant result cannot
// monopolize the budget). capacity <= 0 returns nil — the disabled cache.
func New(capacity, maxEntry int64) *ResultCache {
	if capacity <= 0 {
		return nil
	}
	if maxEntry <= 0 {
		maxEntry = capacity / 8
		if maxEntry == 0 {
			maxEntry = capacity
		}
	}
	return &ResultCache{
		capacity: capacity,
		maxEntry: maxEntry,
		order:    list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// MaxEntry reports the per-entry byte cap (0 on the disabled cache).
func (c *ResultCache) MaxEntry() int64 {
	if c == nil {
		return 0
	}
	return c.maxEntry
}

// Get returns the entry cached under k, marking it most recently used.
func (c *ResultCache) Get(k Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).ent, true
}

// Put inserts the entry produced under k, evicting least recently used
// entries until it fits the budget. It reports whether the entry was
// admitted: an entry larger than the per-entry cap is rejected (counted in
// Stats.Rejected), so one oversized result cannot flush the whole cache.
func (c *ResultCache) Put(k Key, e *Entry) bool {
	if c == nil {
		return false
	}
	size := e.size(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxEntry {
		c.rejected++
		return false
	}
	if el, ok := c.entries[k]; ok {
		ce := el.Value.(*cacheEntry)
		c.bytes += size - ce.size
		ce.ent, ce.size = e, size
		c.order.MoveToFront(el)
	} else {
		c.entries[k] = c.order.PushFront(&cacheEntry{key: k, ent: e, size: size})
		c.bytes += size
	}
	for c.bytes > c.capacity && c.order.Len() > 1 {
		c.removeLocked(c.order.Back())
		c.evictions++
	}
	if c.bytes > c.capacity {
		// The sole remaining entry is the one just inserted and it alone
		// exceeds the budget (possible when maxEntry was set above
		// capacity); drop it rather than hold more than the budget.
		c.removeLocked(c.order.Back())
		c.evictions++
		return false
	}
	c.fills++
	return true
}

// NoteRejected records a result the fill path abandoned mid-stream because
// its body outgrew the per-entry cap before it was ever offered to Put
// (counted in Stats.Rejected alongside Put-time rejections).
func (c *ResultCache) NoteRejected() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

func (c *ResultCache) removeLocked(el *list.Element) {
	ce := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ce.key)
	c.bytes -= ce.size
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the cache's counters and gauges (zero on the disabled
// cache).
func (c *ResultCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Fills: c.fills, Rejected: c.rejected,
		Evictions: c.evictions,
		Entries:   c.order.Len(), Bytes: c.bytes, Capacity: c.capacity,
	}
}
