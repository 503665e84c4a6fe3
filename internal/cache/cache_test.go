package cache

import (
	"strings"
	"testing"
)

func key(q string) Key {
	return Key{Store: "default", Mode: "ExtVP", Query: q}
}

func entry(body string) *Entry {
	return &Entry{Body: []byte(body), Rows: 1}
}

// TestCacheLRUByteAccounting checks that the byte budget evicts least
// recently used entries and that a Get refreshes recency.
func TestCacheLRUByteAccounting(t *testing.T) {
	// Room for roughly three small entries (each ~ entryOverhead + a few
	// bytes of body and query text).
	c := New(3*entryOverhead+100, entryOverhead+50)
	if !c.Put(key("a"), entry("aaaa")) {
		t.Fatal("put a rejected")
	}
	if !c.Put(key("b"), entry("bbbb")) {
		t.Fatal("put b rejected")
	}
	if !c.Put(key("c"), entry("cccc")) {
		t.Fatal("put c rejected")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch "a" so "b" is now the LRU entry, then insert "d" to evict it.
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	if !c.Put(key("d"), entry("dddd")) {
		t.Fatal("put d rejected")
	}
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b survived past the byte budget (should have been the LRU victim)")
	}
	for _, q := range []string{"a", "c", "d"} {
		if _, ok := c.Get(key(q)); !ok {
			t.Fatalf("%s missing after eviction of b", q)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	if st.Bytes > st.Capacity {
		t.Fatalf("bytes %d over capacity %d", st.Bytes, st.Capacity)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
}

// TestCacheOversizeRejected checks the per-entry cap: one oversized result
// cannot flush the whole cache, and the rejection is counted.
func TestCacheOversizeRejected(t *testing.T) {
	c := New(1<<20, 600)
	if c.Put(key("big"), entry(string(make([]byte, 1024)))) {
		t.Fatal("oversized entry admitted")
	}
	c.NoteRejected()
	if got := c.Stats().Rejected; got != 2 {
		t.Fatalf("Rejected = %d, want 2", got)
	}
	if !c.Put(key("small"), entry("ok")) {
		t.Fatal("small entry rejected")
	}
}

// TestCacheDisabled checks every method is safe on the nil (disabled) cache.
func TestCacheDisabled(t *testing.T) {
	c := New(0, 0)
	if c != nil {
		t.Fatal("capacity 0 should return the nil cache")
	}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("nil cache hit")
	}
	if c.Put(key("a"), entry("a")) {
		t.Fatal("nil cache admitted an entry")
	}
	c.NoteRejected()
	if c.Len() != 0 || c.MaxEntry() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported non-zero state")
	}
}

// TestCachePutReplace checks a Put under a key already cached: concurrent
// identical misses each fill the same key, and the second fill replaces the
// first in place rather than adding an entry. A replace that grows the
// cache past its budget evicts other entries, never the replacement.
func TestCachePutReplace(t *testing.T) {
	// Room for three entries with one-byte bodies, and a per-entry cap a few
	// dozen bytes above that.
	c := New(3*entryOverhead+30, entryOverhead+50)
	a := key("a")
	c.Put(a, entry("1"))
	second := entry("2")
	if !c.Put(a, second) {
		t.Fatal("replacing put rejected")
	}
	st := c.Stats()
	if c.Len() != 1 || st.Bytes != second.size(a) || st.Fills != 2 {
		t.Fatalf("after two puts under one key: Len %d, Bytes %d, Fills %d; want 1, %d, 2",
			c.Len(), st.Bytes, st.Fills, second.size(a))
	}
	if got, _ := c.Get(a); got != second {
		t.Fatal("Get returned the replaced entry")
	}

	b, cc := key("b"), key("c")
	c.Put(b, entry("b"))
	c.Put(cc, entry("c"))
	big := entry(strings.Repeat("x", 40))
	if !c.Put(a, big) {
		t.Fatal("growing replace rejected")
	}
	if got, _ := c.Get(a); got != big {
		t.Fatal("growing replace lost the replacement")
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("b, the least recently used entry, survived the over-budget replace")
	}
	if _, ok := c.Get(cc); !ok {
		t.Fatal("c evicted although evicting b was enough")
	}
	st = c.Stats()
	if st.Evictions != 1 || st.Bytes != big.size(a)+entry("c").size(cc) {
		t.Fatalf("after growing replace: Evictions %d, Bytes %d; want 1, %d",
			st.Evictions, st.Bytes, big.size(a)+entry("c").size(cc))
	}
}
