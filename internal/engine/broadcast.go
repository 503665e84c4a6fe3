package engine

// Broadcast joins. The paper's evaluation runs Spark with broadcast joins
// disabled (Sec. 7 setup); this engine supports them so the choice can be
// reproduced and ablated. Under StrategyBroadcast the smaller join side is
// replicated to every partition of the other side instead of shuffling both
// sides by the join key; the planner in internal/core picks the strategy per
// join from estimated side sizes. A broadcast is the shuffle join's hash
// join with other data movement: the same build, made once over the
// gathered small side, and the same probe, run by every big-side partition.

// broadcastJoin joins left and right by replicating the smaller side to
// every partition of the bigger one. The small side is gathered and built
// once; every big-side partition probes the shared read-only build, its
// output the (small-row, big-row) pair vectors over the two, in pooled
// scratch the caller owns (see innerJoin).
func (x *Exec) broadcastJoin(left, right *Relation, lIdx, rIdx []int) (*Relation, []*scratch) {
	leftSmall := left.NumRows() <= right.NumRows()
	small, big := left, right
	sIdx, bIdx := lIdx, rIdx
	if !leftSmall {
		small, big = right, left
		sIdx, bIdx = rIdx, lIdx
	}
	sblk := x.gatherSide(small)
	// Replicating the small side to every partition is the broadcast cost.
	x.addShuffled(int64(sblk.Len()) * int64(len(big.Parts)))

	outSchema := joinSchema(left.Schema, right.Schema, rIdx)
	out := newRelation(outSchema, len(big.Parts))
	// Output partitioning follows the big side, whose rows stay in place;
	// translate its key column into output-schema coordinates.
	out.keyCol = broadcastKeyCol(big, small, bIdx, sIdx, leftSmall)
	pairs := make([]*scratch, len(out.Parts))
	if sblk.Len() == 0 {
		return out, pairs
	}
	b := x.build(sblk, sIdx)
	defer b.close()
	cols := joinCols(len(left.Schema), keepCols(len(right.Schema), rIdx))
	x.parallel(len(big.Parts), big.NumRows(), func(p int) {
		src := big.Parts[p]
		if src.Len() == 0 {
			out.Parts[p] = newFixedBlock(len(outSchema), 0)
			return
		}
		out.Parts[p], pairs[p] = x.probeJoin(b, src, bIdx, leftSmall, cols)
	})
	return out, pairs
}

// broadcastKeyCol maps the big side's partitioning column into the joined
// output schema (left columns first, then right columns minus the join
// duplicates), returning -1 when the big side has no known partitioning.
func broadcastKeyCol(big, small *Relation, bIdx, sIdx []int, leftSmall bool) int {
	k := big.keyCol
	if k < 0 {
		return -1
	}
	if !leftSmall {
		// Big side is the left input: its columns lead the output unchanged.
		return k
	}
	// Big side is the right input. Its join columns are dropped from the
	// output but are equal to the left-side columns they joined on.
	for i, bj := range bIdx {
		if bj == k {
			return sIdx[i]
		}
	}
	idx := len(small.Schema)
	dup := dupMask(len(big.Schema), bIdx)
	for j := 0; j < k; j++ {
		if !dup[j] {
			idx++
		}
	}
	return idx
}
