package core

import (
	"s2rdf/internal/sparql"
)

// Pre-execution cost estimation for the admission cost gate. The scheduler
// must decide cheap-vs-expensive before a query runs, so this reuses
// exactly the statistics the join planner runs on — Algorithm 1 table
// selections with bound-term selectivity scaling (selection.est) — without
// touching any data: EstimateQuery walks the query the way evalGroup /
// evalBGP will, replays the planner's join-order estimate accumulation,
// and reports the totals. Estimating therefore also warms the plan and
// selection caches the real execution will hit.

// costCap bounds the estimate accumulation so disconnected-pattern cross
// joins (whose estimates multiply) cannot overflow int; any value at the
// cap is already far beyond every classification threshold.
const costCap = 1 << 40

// CostEstimate is the planner's pre-execution cost model of one query.
type CostEstimate struct {
	// Patterns counts triple patterns across all groups (BGPs, OPTIONALs,
	// UNION branches).
	Patterns int
	// ScanRows sums the per-pattern row estimates (table cardinality
	// scaled by bound-term selectivity): the work the scans are expected
	// to feed into the plan.
	ScanRows int
	// PeakRows is the largest estimated intermediate-result cardinality
	// reached while replaying the planner's join-order accumulation; cross
	// joins multiply estimates, so a disconnected BGP classifies as
	// expensive even when its individual tables are small.
	PeakRows int
	// PlanCached reports whether the parsed query was already in the plan
	// cache when the estimate ran. Estimation warms the caches the
	// execution then hits, so the serving layer uses these fields (not the
	// execution's own counters) for the cache headers: they record whether
	// the server had seen the query before this request.
	PlanCached bool
	// SelectionCacheHits / SelectionCacheMisses count the BGPs whose table
	// selections were served from / computed into the selection cache
	// during estimation.
	SelectionCacheHits, SelectionCacheMisses int
}

// Cost is the scalar the cost gate classifies on: the larger of the total
// scan estimate and the peak intermediate estimate.
func (c CostEstimate) Cost() int {
	if c.PeakRows > c.ScanRows {
		return c.PeakRows
	}
	return c.ScanRows
}

// EstimateCost parses src (through the plan cache) and returns its cost
// estimate without executing anything. A parse error is returned as-is, so
// the serving layer rejects malformed queries before they ever occupy a
// queue slot.
func (e *Engine) EstimateCost(src string) (CostEstimate, error) {
	return e.EstimateCostNorm(src, "")
}

// EstimateCostNorm is EstimateCost with the normalized query text
// precomputed by the caller (empty means compute it here).
func (e *Engine) EstimateCostNorm(src, norm string) (CostEstimate, error) {
	if norm == "" {
		norm = NormalizeQuery(src)
	}
	q, cached, err := e.ParseCached(src, norm)
	if err != nil {
		return CostEstimate{}, err
	}
	c := e.EstimateQuery(q)
	c.PlanCached = cached
	return c, nil
}

// EstimateQuery returns the cost estimate of a parsed query.
func (e *Engine) EstimateQuery(q *sparql.Query) CostEstimate {
	var c CostEstimate
	e.estimateGroup(q.Where, &c)
	return c
}

func (e *Engine) estimateGroup(g *sparql.Group, c *CostEstimate) {
	if g == nil {
		return
	}
	if len(g.Triples) > 0 {
		e.estimateBGP(g.Triples, c)
	}
	for _, u := range g.Unions {
		for _, alt := range u.Alternatives {
			e.estimateGroup(alt, c)
		}
	}
	for _, opt := range g.Optionals {
		e.estimateGroup(opt, c)
	}
}

// estimateBGP folds one BGP into the estimate: per-pattern scan estimates
// into ScanRows, and the planner's join-order estimate accumulation —
// min(left, right) for connected joins, the product for cross joins (the
// same arithmetic evalBGP tracks while executing) — into PeakRows.
func (e *Engine) estimateBGP(bgp []sparql.TriplePattern, c *CostEstimate) {
	c.Patterns += len(bgp)
	tpStrs := make([]string, len(bgp))
	for i, tp := range bgp {
		tpStrs[i] = tp.String()
	}
	sels, empty, cached := e.bgpSelections(bgp, tpStrs)
	if cached {
		c.SelectionCacheHits++
	} else {
		c.SelectionCacheMisses++
	}
	for _, sel := range sels {
		c.ScanRows = addCapped(c.ScanRows, sel.est)
	}
	if empty || len(sels) < len(bgp) {
		// Statistics prove the BGP empty: execution will answer without
		// scanning, so the patterns contribute nothing further.
		return
	}
	tpVars := make([][]string, len(bgp))
	for i, tp := range bgp {
		tpVars[i] = tp.Vars()
	}
	order := e.planJoinOrder(bgp, tpVars, sels)
	est := 0
	var bound []string
	for oi, idx := range order {
		switch {
		case oi == 0:
			est = sels[idx].est
		case sharesVar(bound, tpVars[idx]):
			est = estimateJoinRows(est, sels[idx].est)
		default:
			est = mulCapped(est, sels[idx].est)
		}
		if est > c.PeakRows {
			c.PeakRows = est
		}
		bound = joinedSchema(bound, tpVars[idx])
	}
}

func addCapped(a, b int) int {
	if a > costCap-b {
		return costCap
	}
	return a + b
}

func mulCapped(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}
