package engine

import "sync"

// scratch is a pooled pair of int32 vectors: the (build row, probe row)
// pairs a join probe emits, or a scan's selection vector (a alone). An
// operator takes one, fills it, materializes its output block from it and
// puts it back, so a warmed join or conditioned scan allocates only its
// output block. Nothing an operator returns may alias a scratch vector:
// the output is always a copy (gatherPairs, AppendColumnsSelected).
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
