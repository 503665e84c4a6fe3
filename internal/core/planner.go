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
// SelectionCache), so repeat queries skip Algorithm 1 entirely. planBGP
// is the one place a BGP is planned, once per query (PlanQuery): the cost
// gate prices its output and evalBGP executes it.

// JoinPlan records one executed join step for EXPLAIN-style inspection: the
// right-hand input joined in, the physical strategy chosen, the input size
// estimates the choice was based on, and the work the step actually
// performed. The executed-work fields are deterministic for a given dataset
// and cluster, so a re-run of the same query reports identical JoinPlans.
type JoinPlan struct {
	// Right describes the right input: a triple pattern, or "UNION" /
	// "OPTIONAL" for group-level joins.
	Right string
	// Strategy is "shuffle", "broadcast" or "cross".
	Strategy string
	// LeftRows and RightRows are the estimated (BGP joins) or exact
	// (group-level joins) input cardinalities the decision used.
	LeftRows, RightRows int
	// RowsShuffled and Comparisons are the rows this step moved and the
	// hash-chain comparisons it performed, measured by the engine.
	RowsShuffled, Comparisons int64
}

// Join strategy names as reported in JoinPlan and the HTTP headers.
const (
	strategyShuffle   = "shuffle"
	strategyBroadcast = "broadcast"
	strategyCross     = "cross"
)

// chooseJoinStrategy picks the physical join from the sides' sizes. Sides
// that share no variable (connected false) can only cross join. Otherwise
// a broadcast replicates one side to every partition (≈ its rows ×
// partitions moved) while a shuffle repartitions both sides (≈ left +
// right rows moved); broadcast wins when its replication cost is lower.
// An inner join broadcasts the smaller side; an outer join only its right
// side (left rows must stay in place so unmatched ones survive exactly
// once).
func chooseJoinStrategy(leftRows, rightRows, partitions int, outer, connected bool) string {
	if !connected {
		return strategyCross
	}
	small := rightRows
	if !outer && leftRows < small {
		small = leftRows
	}
	if small*partitions < leftRows+rightRows {
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

// joinStep runs one join and records it: run executes the join under
// jp.Strategy, and jp, completed with the rows the join shuffled and the
// comparisons it made, is appended to res.Joins. Every join site — BGP,
// UNION, OPTIONAL and PT — goes through it.
func joinStep(ex *engine.Exec, res *Result, jp JoinPlan, run func(engine.JoinStrategy) *engine.Relation) *engine.Relation {
	before := ex.MetricsSnapshot()
	rel := run(engineStrategy(jp.Strategy))
	d := ex.MetricsSnapshot().Sub(before)
	jp.RowsShuffled, jp.Comparisons = d.RowsShuffled, d.JoinComparisons
	res.Joins = append(res.Joins, jp)
	return rel
}

// joinRelations joins two materialized relations — a group's UNION and
// OPTIONAL blocks, PT's units — so the strategy is picked on exact
// cardinalities. outer makes it a left outer join filtered by pred.
func (e *Engine) joinRelations(ex *engine.Exec, res *Result, name string, left, right *engine.Relation, outer bool, pred func(engine.Row) bool) *engine.Relation {
	l, r := left.NumRows(), right.NumRows()
	strat := chooseJoinStrategy(l, r, e.Cluster.Partitions(), outer, sharesVar(left.Schema, right.Schema))
	return joinStep(ex, res, JoinPlan{Right: name, Strategy: strat, LeftRows: l, RightRows: r}, func(s engine.JoinStrategy) *engine.Relation {
		if outer {
			return ex.LeftJoinWith(left, right, pred, s)
		}
		return ex.JoinWith(left, right, s)
	})
}

// joinEstimate estimates the output cardinality of joining a pattern
// estimated at right rows into an intermediate estimated at left rows.
// With no per-value statistics the smaller input is the best available
// bound for a connected join: ExtVP reductions make the joined tables
// highly selective, so joins tend to shrink toward the small side. A cross
// join (connected false) multiplies, capped at costCap so a chain of them
// cannot overflow.
func joinEstimate(left, right int, connected bool) int {
	if !connected {
		return mulCapped(left, right)
	}
	return min(left, right)
}

// greedyOrder returns an execution order over inputs with the given
// variable lists: best first by better, always preferring an input
// connected (sharing a variable) to what is already joined, so cross joins
// happen only when the inputs themselves are disconnected. Ties go to the
// earlier input. It orders a BGP's patterns and PT mode's units.
func greedyOrder(vars [][]string, better func(i, j int) bool) []int {
	n := len(vars)
	order := make([]int, 0, n)
	used := make([]bool, n)
	var bound []string
	for len(order) < n {
		next, nextConn := -1, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := len(order) == 0 || sharesVar(bound, vars[i])
			switch {
			case next < 0, conn && !nextConn:
				next, nextConn = i, conn
			case conn == nextConn && better(i, next):
				next = i
			}
		}
		used[next] = true
		order = append(order, next)
		bound = joinedSchema(bound, vars[next])
	}
	return order
}

// bgpPlan is a BGP planned once, before any data is touched: the cost gate
// sums it and evalBGP runs it.
type bgpPlan struct {
	bgp []sparql.TriplePattern
	// tpStrs and tpVars are each pattern's rendered form and variables,
	// computed once: String and Vars allocate.
	tpStrs []string
	tpVars [][]string
	// sels are the table selections (Algorithm 1), truncated after the
	// first statistics-empty pattern; empty records that one was, and
	// leaves tpVars and steps nil. cached reports a selection-cache hit.
	sels          []selection
	empty, cached bool
	// steps is the join order.
	steps []planStep
	// pt replaces sels and steps in ModePT (planBGPPT); nil when the store
	// has no property table.
	pt *ptPlan
}

// newBGPPlan starts a BGP's plan, rendering each pattern once.
func newBGPPlan(bgp []sparql.TriplePattern) bgpPlan {
	p := bgpPlan{bgp: bgp, tpStrs: make([]string, len(bgp))}
	for i, tp := range bgp {
		p.tpStrs[i] = tp.String()
	}
	return p
}

// planStep is one pattern of a BGP's join order.
type planStep struct {
	idx int // the pattern's index in the BGP
	// est is the estimated cardinality of the intermediate once the
	// pattern is joined in (joinEstimate).
	est int
	// strategy is how the pattern joins the intermediate; empty for the
	// first pattern, which is only scanned.
	strategy string
}

// planBGP plans a BGP: table selections (through the selection cache),
// then the join order — greedy by estimate, then table rows, then more
// bound positions, when JoinOrderOpt; textual order (the paper's Algorithm
// 3) otherwise — with each step's output estimate and join strategy.
func (e *Engine) planBGP(bgp []sparql.TriplePattern) bgpPlan {
	p := newBGPPlan(bgp)
	p.sels, p.empty, p.cached = e.bgpSelections(bgp, p.tpStrs)
	if p.empty {
		return p
	}
	p.tpVars = make([][]string, len(bgp))
	for i, tp := range bgp {
		p.tpVars[i] = tp.Vars()
	}
	var order []int
	if e.JoinOrderOpt {
		sels := p.sels
		order = greedyOrder(p.tpVars, func(i, j int) bool {
			if sels[i].est != sels[j].est {
				return sels[i].est < sels[j].est
			}
			if sels[i].rows != sels[j].rows {
				return sels[i].rows < sels[j].rows
			}
			return bgp[i].BoundCount() > bgp[j].BoundCount()
		})
	} else {
		order = make([]int, len(bgp))
		for i := range order {
			order[i] = i
		}
	}
	parts := e.Cluster.Partitions()
	p.steps = make([]planStep, len(order))
	var bound []string
	for oi, idx := range order {
		s := planStep{idx: idx, est: p.sels[idx].est}
		if oi > 0 {
			prev := p.steps[oi-1].est
			connected := sharesVar(bound, p.tpVars[idx])
			s.strategy = chooseJoinStrategy(prev, s.est, parts, false, connected)
			s.est = joinEstimate(prev, s.est, connected)
		}
		p.steps[oi] = s
		bound = joinedSchema(bound, p.tpVars[idx])
	}
	return p
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
