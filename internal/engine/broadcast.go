package engine

// Broadcast joins. The paper's evaluation runs Spark with broadcast joins
// disabled (Sec. 7 setup); this engine supports them so the choice can be
// reproduced and ablated. Under StrategyBroadcast the smaller join side is
// replicated to every partition of the other side instead of shuffling both
// sides by the join key; the planner in internal/core picks the strategy per
// join from estimated side sizes.

// broadcastJoin joins left and right by replicating the smaller side to
// every partition of the bigger one. The small side is gathered and indexed
// at most once per execution (joinTable/gatherCached memoize, so a relation
// broadcast into several joins is hashed once); every big-side partition
// probes the shared read-only join table, emitting (small-row, big-row)
// pair vectors into pooled scratch, which place materializes in one gather
// or, under keep, hands back unmaterialized (see pairJoin).
func (x *Exec) broadcastJoin(left, right *Relation, lIdx, rIdx []int, keep bool) (*Relation, []joinPairs) {
	leftSmall := left.NumRows() <= right.NumRows()
	small, big := left, right
	sIdx, bIdx := lIdx, rIdx
	if !leftSmall {
		small, big = right, left
		sIdx, bIdx = rIdx, lIdx
	}
	sblk := x.gatherCached(small)
	// Replicating the small side to every partition is the broadcast cost.
	x.addShuffled(int64(sblk.Len()) * int64(len(big.Parts)))

	outSchema := joinSchema(left.Schema, right.Schema, rIdx)
	out := newRelation(outSchema, len(big.Parts))
	// Output partitioning follows the big side, whose rows stay in place;
	// translate its key column into output-schema coordinates.
	out.keyCol = broadcastKeyCol(big, small, bIdx, sIdx, leftSmall)
	var pairs []joinPairs
	if keep {
		pairs = make([]joinPairs, len(out.Parts))
	}
	if sblk.Len() == 0 {
		return out, pairs
	}

	// With a memory budget set and no room left for the broadcast table,
	// spill the small side to sorted runs once; every big-side partition
	// then merge-joins against the shared runs through its own readers. A
	// disk failure falls back to the in-memory table mid-flight (joinTable
	// memoizes under a lock, so concurrent fallbacks build it once).
	var sr *spillRuns
	if x.overBudget(tableBytes(sblk.Len())) {
		sr, _ = x.buildSpillRuns(sblk, sIdx)
		if sr != nil {
			defer sr.close()
		}
	}
	var ht *indexTable
	if sr == nil {
		ht = x.joinTable(sblk, sIdx[0])
		if ht == nil {
			return out, pairs // cancelled mid-build
		}
	}
	// The output drops the right side's join columns: when the small side is
	// left, those live on the big side, otherwise on the replicated small
	// side. The surviving-column list is fixed for the whole join.
	var sKeep, bKeep []int
	if leftSmall {
		bKeep = keepCols(len(big.Schema), bIdx)
	} else {
		sKeep = keepCols(len(small.Schema), sIdx)
	}
	x.parallel(len(big.Parts), func(p int) {
		src := big.Parts[p]
		if src.Len() == 0 {
			place(out, pairs, p, joinPairs{arity: len(outSchema)})
			return
		}
		sc := getScratch()
		var ssel, bsel []int32
		spilled := false
		if sr != nil {
			ssel, bsel, spilled = x.spillProbePairs(sr, src, bIdx)
		}
		if !spilled {
			ssel, bsel = x.broadcastProbePairs(sblk, src, sIdx, bIdx, sc.a, sc.b)
			sc.a, sc.b = ssel, bsel
		}
		jp := joinPairs{l: src, lsel: bsel, r: sblk, rKeep: sKeep, rsel: ssel, sc: sc, arity: len(outSchema)}
		if leftSmall {
			jp = joinPairs{l: sblk, lsel: ssel, r: src, rKeep: bKeep, rsel: bsel, sc: sc, arity: len(outSchema)}
		}
		place(out, pairs, p, jp)
	})
	return out, pairs
}

// broadcastProbePairs probes the small side's in-memory join table with one
// big-side partition, appending (small row, big row) pairs to ssel and bsel,
// which grow only as far as the matches go. It is the in-memory probe of
// broadcastJoin, also the fallback when a spilled broadcast hits a disk
// error.
func (x *Exec) broadcastProbePairs(sblk, src *Block, sIdx, bIdx []int, ssel, bsel []int32) ([]int32, []int32) {
	ht := x.joinTable(sblk, sIdx[0])
	if ht == nil {
		return ssel, bsel // cancelled mid-build
	}
	n := src.Len()
	bkey := src.cols[bIdx[0]]
	var comparisons int64
	for i := 0; i < n; i++ {
		if x.stop(i) {
			break
		}
	cand:
		for si := ht.first(bkey[i]); si >= 0; si = ht.next[si] {
			comparisons++
			for k := 1; k < len(bIdx); k++ {
				if src.cols[bIdx[k]][i] != sblk.cols[sIdx[k]][si] {
					continue cand
				}
			}
			ssel = append(ssel, si)
			bsel = append(bsel, int32(i))
		}
	}
	x.addComparisons(comparisons)
	return ssel, bsel
}

// leftJoinBroadcast is the broadcast form of the left outer join: the right
// side is gathered once, hashed once, and probed by every left partition in
// place. Left rows never move, so the output keeps the left partitioning.
func (x *Exec) leftJoinBroadcast(left, right *Relation, lIdx, rIdx []int, outSchema []string, pred func(Row) bool) *Relation {
	rblk := x.gatherCached(right)
	// Replicating the right side to every left partition is the broadcast
	// cost, exactly as in the inner broadcast join.
	x.addShuffled(int64(rblk.Len()) * int64(len(left.Parts)))
	ht := x.joinTable(rblk, rIdx[0])
	out := newRelation(outSchema, len(left.Parts))
	out.keyCol = left.keyCol
	x.parallel(len(left.Parts), func(p int) {
		out.Parts[p] = x.probeOuter(left.Parts[p], ht, rblk, lIdx, rIdx, len(outSchema), pred)
	})
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
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
