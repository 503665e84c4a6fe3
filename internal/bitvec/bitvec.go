// Package bitvec implements the fixed-size bit vectors used by the
// bit-vector representation of ExtVP — the storage optimization the paper
// names as future work (Sec. 8): instead of materializing a semi-join
// reduction as a copy of the VP rows, store one bit per VP row marking
// membership in the reduction. A reduction then costs |VP|/8 bytes instead
// of 8·|reduction| bytes, and the intersection of several reductions is a
// word-wise AND.
package bitvec

import "math/bits"

// Bitset is a fixed-length bit vector.
type Bitset struct {
	n     int
	words []uint64
}

// New returns a zeroed bitset of length n.
func New(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the bitset length.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Reset clears every bit, keeping the length and the storage.
func (b *Bitset) Reset() { clear(b.words) }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountRange returns the number of set bits in [lo, hi), word-wise: the
// scan pipeline uses it to express zone-map pruning in selected rows.
func (b *Bitset) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	wlo, whi := lo>>6, (hi-1)>>6
	// Mask off bits below lo in the first word and above hi-1 in the last.
	first := b.words[wlo] &^ (1<<(uint(lo)&63) - 1)
	if wlo == whi {
		return bits.OnesCount64(first & (1<<(uint(hi-1)&63+1) - 1))
	}
	n := bits.OnesCount64(first)
	for w := wlo + 1; w < whi; w++ {
		n += bits.OnesCount64(b.words[w])
	}
	return n + bits.OnesCount64(b.words[whi]&(1<<(uint(hi-1)&63+1)-1))
}

// AppendSet appends the indices of the set bits in [lo, hi) to dst in
// ascending order. It walks the range word by word and jumps from set bit to
// set bit with TrailingZeros64, so a sparse selection costs one step per
// word plus one per member rather than one Get per position.
func (b *Bitset) AppendSet(dst []int32, lo, hi int) []int32 {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return dst
	}
	wlo, whi := lo>>6, (hi-1)>>6
	for w := wlo; w <= whi; w++ {
		word := b.words[w]
		if w == wlo {
			word &^= 1<<(uint(lo)&63) - 1
		}
		if w == whi {
			word &= 1<<(uint(hi-1)&63+1) - 1
		}
		for base := int32(w << 6); word != 0; word &= word - 1 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// And returns a new bitset holding the intersection of b and other. The
// lengths must match.
func (b *Bitset) And(other *Bitset) *Bitset {
	if other.n != b.n {
		panic("bitvec: length mismatch")
	}
	out := New(b.n)
	for i := range b.words {
		out.words[i] = b.words[i] & other.words[i]
	}
	return out
}

// AndInPlace intersects other into b.
func (b *Bitset) AndInPlace(other *Bitset) {
	if other.n != b.n {
		panic("bitvec: length mismatch")
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Clone returns a copy.
func (b *Bitset) Clone() *Bitset {
	out := New(b.n)
	copy(out.words, b.words)
	return out
}

// Bytes returns the in-memory size of the bit data.
func (b *Bitset) Bytes() int { return len(b.words) * 8 }

// Words exposes the raw words for serialization.
func (b *Bitset) Words() []uint64 { return b.words }

// FromWords reconstructs a bitset from serialized words.
func FromWords(n int, words []uint64) *Bitset {
	b := New(n)
	copy(b.words, words)
	return b
}
