package core

import (
	"strings"

	"s2rdf/internal/engine"
	"s2rdf/internal/sparql"
)

// Cost-based BGP planning. Algorithm 1 already estimates, per triple
// pattern, the rows of the selected table and its selectivity factor;
// bound-term selectivity then scales that estimate by 1/NDV per bound
// position using the chosen table's distinct-value counts (selection.est).
// This layer spends those statistics twice more:
//
//   - join ORDER: greedy smallest-estimate-first, restricted to patterns
//     connected to what is already joined so no accidental cross join is
//     introduced (the refinement of the paper's Algorithm 4);
//   - join STRATEGY: per join, broadcast the smaller side when replicating
//     it to every partition moves fewer rows than shuffling both sides;
//
// and memoizes the table selections themselves per normalized BGP (the
// SelectionCache), so repeat queries skip Algorithm 1 entirely.

// JoinPlan records one executed join step for EXPLAIN-style inspection: the
// right-hand input joined in, the physical strategy chosen, the input size
// estimates the choice was based on, and the work the step actually
// performed. The executed-work fields are deterministic for a given dataset
// and cluster, so a plan-cache re-run reports identical JoinPlans.
type JoinPlan struct {
	// Right describes the right input: a triple pattern, or "UNION" /
	// "OPTIONAL" for group-level joins.
	Right string
	// Strategy is "shuffle", "broadcast", "cross" or "star".
	Strategy string
	// LeftRows and RightRows are the estimated (BGP joins) or exact
	// (group-level joins) input cardinalities the decision used.
	LeftRows, RightRows int
	// RowsShuffled and Comparisons are the rows this step moved and the
	// hash-chain comparisons it performed, measured by the engine.
	RowsShuffled, Comparisons int64
	// CoPartitioned reports that the left input arrived already hash-
	// partitioned on the join key, making its half of the shuffle free.
	CoPartitioned bool
}

// Join strategy names as reported in JoinPlan and the HTTP headers.
const (
	strategyShuffle   = "shuffle"
	strategyBroadcast = "broadcast"
	strategyCross     = "cross"
	strategyStar      = "star"
)

// chooseJoinStrategy picks the physical join from estimated side sizes. A
// broadcast replicates the smaller side to every partition (≈ small ×
// partitions rows moved) while a shuffle repartitions both sides (≈ left +
// right rows moved); broadcast wins when its replication cost is lower.
// When the left side is already co-partitioned on the join key its half of
// the shuffle is free, so only the right side counts against broadcast.
func chooseJoinStrategy(leftRows, rightRows, partitions int, coPart bool) string {
	small := leftRows
	if rightRows < small {
		small = rightRows
	}
	shuffleCost := leftRows + rightRows
	if coPart {
		shuffleCost = rightRows
	}
	if small*partitions < shuffleCost {
		return strategyBroadcast
	}
	return strategyShuffle
}

// coPartitionedLeft reports whether the left relation is already hash-
// partitioned on the column a natural join with rightVars would shuffle by
// (the first left-schema column both sides share), at the cluster's
// partition count — i.e. whether the engine would skip the left shuffle.
func coPartitionedLeft(left *engine.Relation, rightVars []string, partitions int) bool {
	for i, name := range left.Schema {
		for _, rv := range rightVars {
			if name == rv {
				return left.CoPartitionedBy(i, partitions)
			}
		}
	}
	return false
}

// chooseLeftJoinStrategy is chooseJoinStrategy for a left outer join, where
// only the right side can be broadcast (left rows must stay in place so
// unmatched ones survive exactly once).
func chooseLeftJoinStrategy(leftRows, rightRows, partitions int) string {
	if rightRows*partitions < leftRows+rightRows {
		return strategyBroadcast
	}
	return strategyShuffle
}

// engineStrategy maps a planned strategy name onto the engine hook.
func engineStrategy(s string) engine.JoinStrategy {
	if s == strategyBroadcast {
		return engine.StrategyBroadcast
	}
	return engine.StrategyShuffle
}

// estimateJoinRows estimates the output cardinality of joining relations of
// the given sizes. With no per-value statistics the smaller input is the
// best available bound: ExtVP reductions make the joined tables highly
// selective, so joins tend to shrink toward the small side.
func estimateJoinRows(left, right int) int {
	if left < right {
		return left
	}
	return right
}

// planJoinOrder returns the execution order of the BGP's patterns as
// indices into bgp: greedy smallest-estimated-cardinality first, always
// preferring a pattern connected (sharing a variable) to what is already
// joined, so cross joins happen only when the BGP itself is disconnected.
// Ties break toward more bound positions, then textual order. With
// JoinOrderOpt off it is the identity (the paper's Algorithm 3).
func (e *Engine) planJoinOrder(bgp []sparql.TriplePattern, tpVars [][]string, sels []selection) []int {
	n := len(bgp)
	order := make([]int, 0, n)
	if !e.JoinOrderOpt {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	used := make([]bool, n)
	var bound []string
	better := func(i, j int) bool { // prefer i over j among equal connectivity
		if sels[i].est != sels[j].est {
			return sels[i].est < sels[j].est
		}
		if sels[i].rows != sels[j].rows {
			return sels[i].rows < sels[j].rows
		}
		return bgp[i].BoundCount() > bgp[j].BoundCount()
	}
	for len(order) < n {
		next, nextConn := -1, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := len(order) == 0 || sharesVar(bound, tpVars[i])
			switch {
			case next < 0, conn && !nextConn:
				next, nextConn = i, conn
			case conn == nextConn && better(i, next):
				next = i
			}
		}
		used[next] = true
		order = append(order, next)
		bound = joinedSchema(bound, tpVars[next])
	}
	return order
}

// bgpKey canonicalizes a BGP for selection-cache lookup: the parsed
// patterns' rendered forms, which are whitespace- and comment-free, joined
// in textual order. Two differently formatted query strings with the same
// patterns share one entry. The caller supplies the rendered patterns so
// one rendering serves the key and the explain surface alike.
func bgpKey(tpStrs []string) string {
	var b strings.Builder
	for i, s := range tpStrs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(s)
	}
	return b.String()
}

// selEntry is one cached BGP's table selections. sels is truncated at the
// first statistics-empty pattern (nothing after it was selected); empty
// records that the statistics proved the BGP unsatisfiable.
type selEntry struct {
	sels  []selection
	empty bool
}

// SelectionCache is an LRU of per-BGP table selections — the output of the
// paper's Algorithm 1, which depends only on the BGP and the dataset
// statistics, which never change once the dataset is loaded, so an entry
// stays valid until LRU eviction. Cached selections reference immutable
// tables and bitsets, so one entry may back any number of concurrent
// executions.
type SelectionCache = lru[selEntry]

// DefaultSelectionCacheSize is the selection LRU capacity New configures.
const DefaultSelectionCacheSize = 256

// NewSelectionCache returns a cache holding at most capacity BGPs;
// capacity <= 0 returns nil (caching disabled).
func NewSelectionCache(capacity int) *SelectionCache { return newLRU[selEntry](capacity) }

// bgpSelections returns the table selection for every pattern of the BGP,
// serving repeats from the selection cache. cached reports a hit; on a
// miss, Algorithm 1 runs and the result is stored. sels is truncated after
// the first statistics-empty pattern, with empty set.
func (e *Engine) bgpSelections(bgp []sparql.TriplePattern, tpStrs []string) (sels []selection, empty, cached bool) {
	var key string
	if e.Selections != nil {
		key = bgpKey(tpStrs)
		if ent, ok := e.Selections.get(key); ok {
			return ent.sels, ent.empty, true
		}
	}
	e.algorithm1Runs.Add(1)
	sels = make([]selection, 0, len(bgp))
	for i := range bgp {
		sel := e.selectTable(i, bgp)
		// Bound-term selectivity: scale the table cardinality by 1/NDV per
		// bound position, from the chosen table's distinct counts. The
		// estimate is cached with the selection (bound terms are part of
		// the BGP key).
		sel.est = estimatePatternRows(sel, bgp[i])
		sels = append(sels, sel)
		if sel.empty {
			empty = true
			break
		}
	}
	if e.Selections != nil {
		e.Selections.put(key, selEntry{sels: sels, empty: empty})
	}
	return sels, empty, false
}
