package engine

import "sync"

// scratch is a pooled pair of int32 vectors: the (build row, probe row)
// pairs a join probe emits, or a scan's selection vector (a alone). An
// operator takes one, fills it and puts it back once nothing reads it, so
// a warmed join or conditioned scan allocates only what it hands on.
//
// Lazy blocks hold row-id vectors (block.go), and a vector a relation
// still holds must never go back to the pool: another query's probe would
// overwrite it under the relation. So what an operator returns never
// aliases a scratch vector: a join's pair vectors are copied out of the
// scratch (ownPairs) before its output leaves the operator, or reduced to
// each partition's top-k winners and gathered first (JoinTopK); a scan's
// view keeps a copy of its selection vector; an outer join gathers its
// output (gatherPairs). A partition that a cancelled execution leaves
// holding scratch keeps it: its scratch is never put back.
type scratch struct{ a, b []int32 }

// maxPooledScratch caps the vector length a scratch keeps across uses: one
// oversized probe must not pin its buffers in the pool.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch with both vectors empty.
func getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	s.a, s.b = s.a[:0], s.b[:0]
	return s
}

// put returns s to the pool. Callers store the grown vectors back into s
// first, so the next user starts from their capacity.
func (s *scratch) put() {
	if cap(s.a) > maxPooledScratch || cap(s.b) > maxPooledScratch {
		s.a, s.b = nil, nil
	}
	scratchPool.Put(s)
}
