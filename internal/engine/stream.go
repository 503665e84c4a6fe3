package engine

import "s2rdf/internal/dict"

// view returns a zero-copy block over rows [lo, hi) of b: the columns, or
// a lazy block's row ids, are re-sliced, not copied. Blocks are write-once,
// so a view stays valid for as long as its parent.
func (b *Block) view(lo, hi int) *Block {
	if lo == 0 && hi == b.n {
		return b
	}
	if lz := b.lz; lz != nil {
		in, sel := lz.in, lz.sel
		for k, s := range sel {
			if s != nil {
				sel[k] = s[lo:hi:hi]
			} else if in[k] != nil {
				in[k] = in[k].view(lo, hi) // read in order: view the input
			}
		}
		return lazyBlock(hi-lo, in, sel, lz.src)
	}
	out := &Block{cols: make([][]dict.ID, len(b.cols)), n: hi - lo}
	for j, col := range b.cols {
		out.cols[j] = col[lo:hi:hi]
	}
	return out
}

// BatchIter yields a relation's rows as dense column blocks of bounded
// size, in partition order. It is the pull side of the streaming result
// pipeline: the consumer (binding decode, JSON encoding) asks for one batch
// at a time instead of collecting the whole relation, and every Next call
// doubles as a cancellation/yield point, so a paced or disconnected
// consumer stops or pauses the stream at batch granularity.
type BatchIter struct {
	x     *Exec
	r     *Relation
	batch int
	part  int
	off   int
}

// Batches returns an iterator over the relation's rows in blocks of at most
// batch rows. batch <= 0 selects the engine's row-batch cancellation
// granularity (cancelBatch, 1024 rows), aligning stream batch boundaries
// with the points where a time-sliced query yields its worker slot. A
// dense partition's batches are views sharing its column storage; a lazy
// partition's are gathered batch by batch, so a join's output is copied
// once, as it leaves.
func (r *Relation) Batches(x *Exec, batch int) *BatchIter {
	if batch <= 0 {
		batch = cancelBatch
	}
	return &BatchIter{x: x, r: r, batch: batch}
}

// Next returns the next batch, or (nil, false) when the relation is
// exhausted or the execution is cancelled (check Exec.Err to tell the two
// apart). Each call polls the execution's cancellation point, which is also
// the scheduler's pacing hook — a slot-sliced streaming query yields here
// between batches.
func (it *BatchIter) Next() (*Block, bool) {
	if it.x.Cancelled() {
		return nil, false
	}
	for it.part < len(it.r.Parts) {
		p := it.r.Parts[it.part]
		n := p.Len()
		if it.off >= n {
			it.part++
			it.off = 0
			continue
		}
		hi := it.off + it.batch
		if hi > n {
			hi = n
		}
		b := p.view(it.off, hi).dense()
		it.off = hi
		return b, true
	}
	return nil, false
}
