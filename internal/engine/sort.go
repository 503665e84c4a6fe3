package engine

import (
	"strings"

	"s2rdf/internal/dict"
)

// SortCol is one ORDER BY key: a column of the relation and its direction.
type SortCol struct {
	Col  int
	Desc bool
}

// SortKey places one term in ORDER BY's total order: unbound values first,
// then numeric literals by value (equal values tie), then every other term
// by its text. The classes never interleave, which is what makes the order
// transitive on a column mixing numbers and other terms. The engine stays
// dictionary-agnostic: callers hand TopK and OrderBy a function from ID to
// SortKey, and the operators call it once per sorted value, never per
// comparison. The zero SortKey is the unbound key the operators use for
// Null themselves.
type SortKey struct {
	class uint8
	num   float64
	text  string
}

const (
	keyUnbound uint8 = iota
	keyNumeric
	keyText
)

// NumericKey is the key of a numeric literal with value v (not NaN, which
// has no place in an order; callers key such a literal by its text).
func NumericKey(v float64) SortKey { return SortKey{class: keyNumeric, num: v} }

// TextKey is the key of any non-numeric term.
func TextKey(text string) SortKey { return SortKey{class: keyText, text: text} }

func (a SortKey) compare(b SortKey) int {
	if a.class != b.class {
		return int(a.class) - int(b.class)
	}
	switch a.class {
	case keyNumeric:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
	case keyText:
		return strings.Compare(a.text, b.text)
	}
	return 0
}

// sortKeys is the decorated side of a sort: len(cols) keys per entry,
// entry-major, so comparing two entries touches two short contiguous runs.
type sortKeys struct {
	cols  []SortCol
	keyOf func(dict.ID) SortKey
	keys  []SortKey
}

func (s *sortKeys) key(id dict.ID) SortKey {
	if id == Null {
		return SortKey{}
	}
	return s.keyOf(id)
}

// compareCol orders entries a and b by sort column c alone, direction
// applied.
func (s *sortKeys) compareCol(c, a, b int) int {
	nc := len(s.cols)
	d := s.keys[a*nc+c].compare(s.keys[b*nc+c])
	if s.cols[c].Desc {
		return -d
	}
	return d
}

// compare orders entries a and b by every sort column; 0 is a tie the caller
// breaks on input position.
func (s *sortKeys) compare(a, b int) int {
	for c := range s.cols {
		if d := s.compareCol(c, a, b); d != 0 {
			return d
		}
	}
	return 0
}

// sortStable sorts perm, a list of entry numbers of s, with a stable merge
// sort: tied entries keep their order in perm, so a perm listed in input
// order needs no explicit position tie-break. Sub-ranges of at least
// cancelBatch entries poll the execution before sorting, so a cancelled
// sort bails out quickly (leaving perm partially ordered — the caller
// checks Err and discards it) and a time-sliced one yields.
func (x *Exec) sortStable(perm []int32, s *sortKeys) {
	if len(perm) < 2 {
		return
	}
	tmp := make([]int32, len(perm))
	var sortRange func(lo, hi int)
	sortRange = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		if hi-lo >= cancelBatch && x.Cancelled() {
			return
		}
		mid := (lo + hi) / 2
		sortRange(lo, mid)
		sortRange(mid, hi)
		if s.compare(int(perm[mid-1]), int(perm[mid])) <= 0 {
			return // the halves are already in order
		}
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if s.compare(int(perm[j]), int(perm[i])) < 0 {
				tmp[k] = perm[j]
				j++
			} else {
				tmp[k] = perm[i]
				i++
			}
			k++
		}
		copy(tmp[k:], perm[i:mid])
		copy(tmp[k+mid-i:hi], perm[j:hi])
		copy(perm[lo:hi], tmp[lo:hi])
	}
	sortRange(0, len(perm))
}

func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// emptyResult is what a cancelled sort returns: callers must check Err, as
// with every operator, and the result is discarded.
func emptyResult(r *Relation) *Relation {
	out := newRelation(r.Schema, 1)
	out.Parts[0] = NewBlock(len(r.Schema), 0)
	return out
}

// OrderBy sorts all rows by cols into a single partition (coordinator-side,
// as Spark does for a global ORDER BY without range partitioning). Each
// row's keys are computed once, partitions in parallel; the sort then moves
// only row numbers, and the rows are gathered once, column-wise, in sorted
// order. Rows whose keys tie keep their input order (partition order, then
// row index). Every input row enters the sort state, so RowsSorted grows by
// the full input size — the contrast with TopK, which only holds heaps.
func (x *Exec) OrderBy(r *Relation, cols []SortCol, keyOf func(dict.ID) SortKey) *Relation {
	n := r.NumRows()
	nc := len(cols)
	x.addRowsSorted(int64(n))
	s := &sortKeys{cols: cols, keyOf: keyOf, keys: make([]SortKey, n*nc)}
	bases := make([]int, len(r.Parts))
	for p := 1; p < len(r.Parts); p++ {
		bases[p] = bases[p-1] + r.Parts[p-1].Len()
	}
	x.parallel(len(r.Parts), n, func(p int) {
		blk := r.Parts[p]
		if blk.Len() == 0 {
			return
		}
		dst := s.keys[bases[p]*nc:]
		var buf colBuf
		for c, sc := range cols {
			for lo := 0; lo < blk.Len(); lo += cancelBatch {
				if x.stop(lo) {
					return
				}
				hi := min(lo+cancelBatch, blk.Len())
				for i, id := range blk.batch(sc.Col, lo, hi, &buf) {
					dst[(lo+i)*nc+c] = s.key(id)
				}
			}
		}
	})
	perm := identityPerm(n)
	x.sortStable(perm, s)
	if x.Err() != nil {
		return emptyResult(r)
	}
	out := newRelation(r.Schema, 1)
	out.Parts[0] = r.gather().gatherSel(perm)
	x.trackRelation(out)
	return out
}

// UseTopK reports whether ORDER BY with a window of k rows (offset plus
// limit) over rows input rows should run as TopK rather than a full
// OrderBy. A heap pays log(k) per row kept, so TopK is only worthwhile when
// the window is a small fraction of the input: on 2.4×10⁵ rows it beats
// the full sort through a window of 1/8 of the input, draws at 1/6 and
// loses from 1/4 up (docs/perf-orderby.md).
func UseTopK(k, rows int) bool { return k <= rows/8 }

// TopK returns the first k rows of r under cols, in order — the bounded
// replacement for OrderBy+Limit whenever a LIMIT is present. Every
// partition keeps a max-heap of its k best (keys, row number) entries,
// reading the sort columns in place and computing each input row's keys at
// most once; the coordinator merges the heaps and gathers only the k
// winners, so a TopK holds O(partitions × k) keys however large the input.
// RowsSorted — the metric that proves ORDER BY+LIMIT no longer sorts the
// full result — grows by min(k, input) rather than the input size.
//
// Ties are broken by input position (partition order, then row index),
// matching OrderBy exactly: TopK(r, k) equals OrderBy(r) truncated to k
// rows, row for row.
func (x *Exec) TopK(r *Relation, k int, cols []SortCol, keyOf func(dict.ID) SortKey) *Relation {
	total := r.NumRows()
	if k > total {
		k = total
	}
	if k <= 0 {
		return emptyResult(r)
	}
	runs := make([]topRun, len(r.Parts))
	x.parallel(len(r.Parts), total, func(p int) {
		blk := r.Parts[p]
		if blk.Len() == 0 {
			return
		}
		runs[p] = x.topKPartition(blk, k, cols, keyOf)
	})

	// Each run is ascending, and listing the runs in partition order lists
	// tied candidates in input order — what the stable sort preserves.
	cand := &sortKeys{cols: cols}
	var parts, rows []int32
	for p, run := range runs {
		cand.keys = append(cand.keys, run.keys...)
		rows = append(rows, run.rows...)
		for range run.rows {
			parts = append(parts, int32(p))
		}
	}
	perm := identityPerm(len(rows))
	x.sortStable(perm, cand)
	if x.Err() != nil {
		return emptyResult(r)
	}
	x.addRowsSorted(int64(k))
	out := newRelation(r.Schema, 1)
	blk := newFixedBlock(len(r.Schema), k)
	for j, dst := range blk.cols {
		for i, e := range perm[:k] {
			dst[i] = r.Parts[parts[e]].id(j, int(rows[e]))
		}
	}
	out.Parts[0] = blk
	x.trackRelation(out)
	x.addOutput(int64(k))
	return out
}

// JoinTopK returns TopK(JoinWith(left, right, strat), k, cols, keyOf) — the
// same rows in the same order — for a join whose output feeds nothing but
// the top-k (cols index the join's output schema). The join's partitions
// are lazy, so each partition's heap reads its sort columns in place
// through the pair vectors, and only its k winners are gathered, before
// TopK merges them. The join is metered as JoinWith meters it. Whether to
// take the top-k at all follows UseTopK on the join's output size, known
// only after probing: when it says no, and for cross joins, JoinTopK
// returns JoinWith's output and false, for the caller to sort.
func (x *Exec) JoinTopK(left, right *Relation, strat JoinStrategy, k int, cols []SortCol, keyOf func(dict.ID) SortKey) (*Relation, bool) {
	lIdx, rIdx := sharedCols(left.Schema, right.Schema)
	if len(lIdx) == 0 {
		return x.JoinWith(left, right, strat), false
	}
	out, pairs := x.innerJoin(left, right, lIdx, rIdx, strat)
	rows := out.NumRows()
	x.addOutput(int64(rows))
	topk := k > 0 && UseTopK(k, rows)
	x.parallel(len(out.Parts), rows, func(p int) {
		if pairs[p] == nil {
			return
		}
		if blk := out.Parts[p]; topk && blk.Len() > k {
			out.Parts[p] = blk.gatherSel(x.topKPartition(blk, k, cols, keyOf).rows)
		} else {
			out.Parts[p] = blk.ownPairs()
		}
		pairs[p].put()
	})
	x.trackRelation(out)
	if !topk || x.Err() != nil {
		// A partition the cancelled pass skipped still holds its scratch;
		// it is garbage, and its scratch is never put back.
		return out, false
	}
	return x.TopK(out, k, cols, keyOf), true
}

// topRun is one partition's top-k candidates in ascending order: row
// numbers within the partition and their keys (len(cols) per row).
type topRun struct {
	rows []int32
	keys []SortKey
}

// topKPartition selects the k first rows of blk under cols, reading the
// sort columns in place (a lazy block's through its row ids: the leading
// column batch by batch, the others row by row, for the rare rows that
// need them). Entries live in k+1 slots of keys and row numbers; the heap
// orders slot numbers, with the entry that sorts last (later row on a tie)
// at heap[0], and the spare slot takes each further row's keys while it is
// compared against that entry. A cancelled execution returns an empty run.
func (x *Exec) topKPartition(blk *Block, k int, cols []SortCol, keyOf func(dict.ID) SortKey) topRun {
	n := blk.Len()
	if k > n {
		k = n
	}
	if k == 0 {
		return topRun{}
	}
	nc := len(cols)
	s := &sortKeys{cols: cols, keyOf: keyOf, keys: make([]SortKey, (k+1)*nc)}
	rows := make([]int32, k+1)
	heap := make([]int32, 0, k)
	after := func(a, b int32) bool {
		if d := s.compare(int(a), int(b)); d != 0 {
			return d > 0
		}
		return rows[a] > rows[b]
	}
	siftDown := func(i, end int) {
		for {
			big := i
			if l := 2*i + 1; l < end && after(heap[l], heap[big]) {
				big = l
			}
			if r := 2*i + 2; r < end && after(heap[r], heap[big]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	// lead holds the leading sort column's rows from row lo on, a batch
	// at a time.
	var lead []dict.ID
	lo, buf := 0, colBuf{}
	// setKey computes row i's key for sort column c into slot.
	setKey := func(slot, i, c int) {
		id := lead[i-lo]
		if c > 0 {
			id = blk.id(cols[c].Col, i)
		}
		s.keys[slot*nc+c] = s.key(id)
	}

	// lost remembers, direct-mapped on the ID's low bits, leading-column IDs
	// seen to sort after heap[0] on that column alone. heap[0] only ever
	// moves earlier, so such an ID has lost for good: the rows repeating it
	// — join output repeats its keys, mostly in runs — are skipped without
	// computing a key. -1 marks an empty entry (Null is a valid ID).
	var lost [256]int64
	for i := range lost {
		lost[i] = -1
	}
	spare := k
	for i := 0; i < n; i++ {
		if x.stop(i) {
			return topRun{}
		}
		if nc > 0 && i%cancelBatch == 0 {
			lo, lead = i, blk.batch(cols[0].Col, i, min(i+cancelBatch, n), &buf)
		}
		if len(heap) < k {
			slot := len(heap)
			for c := 0; c < nc; c++ {
				setKey(slot, i, c)
			}
			rows[slot] = int32(i)
			heap = append(heap, int32(slot))
			for c := slot; c > 0; {
				parent := (c - 1) / 2
				if !after(heap[c], heap[parent]) {
					break
				}
				heap[c], heap[parent] = heap[parent], heap[c]
				c = parent
			}
			continue
		}
		if nc > 0 {
			if id := lead[i-lo]; int64(id) == lost[id&255] {
				continue
			}
		}
		// Row i follows every kept row, so it displaces heap[0] only when it
		// sorts strictly before it; most rows lose on the first column and
		// never have the rest of their keys computed.
		root, c, d := int(heap[0]), 0, 0
		for ; c < nc && d == 0; c++ {
			setKey(spare, i, c)
			d = s.compareCol(c, spare, root)
		}
		if d >= 0 {
			if d > 0 && c == 1 {
				id := lead[i-lo]
				lost[id&255] = int64(id)
			}
			continue
		}
		for ; c < nc; c++ {
			setKey(spare, i, c)
		}
		rows[spare] = int32(i)
		heap[0], spare = int32(spare), root
		siftDown(0, k)
	}

	// Heapsort the slots into ascending order and emit the run.
	for end := len(heap) - 1; end > 0; end-- {
		heap[0], heap[end] = heap[end], heap[0]
		siftDown(0, end)
	}
	run := topRun{rows: make([]int32, len(heap)), keys: make([]SortKey, 0, len(heap)*nc)}
	for i, slot := range heap {
		run.rows[i] = rows[slot]
		run.keys = append(run.keys, s.keys[int(slot)*nc:(int(slot)+1)*nc]...)
	}
	return run
}
