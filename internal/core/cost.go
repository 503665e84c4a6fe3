package core

import (
	"s2rdf/internal/sparql"
)

// A query is planned once, before any data is touched: PlanQuery walks its
// groups the way evalGroup will and plans each BGP with planBGP (planBGPPT
// in ModePT) — Algorithm 1 table selections with bound-term selectivity
// scaling (selection.est), the join order and the join strategies. The
// admission cost gate prices that plan (QueryPlan.Cost), so the scheduler
// decides cheap-vs-expensive on exactly the plan ExecPlan then runs.

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
	// scaled by bound-term selectivity; in ModePT, a star's scan weight):
	// the work the scans are expected to feed into the plan.
	ScanRows int
	// PeakRows is the largest estimated intermediate-result cardinality
	// reached along the planned join order (planStep.est); cross
	// joins multiply estimates, so a disconnected BGP classifies as
	// expensive even when its individual tables are small.
	PeakRows int
}

// Cost is the scalar the cost gate classifies on: the larger of the total
// scan estimate and the peak intermediate estimate.
func (c CostEstimate) Cost() int {
	if c.PeakRows > c.ScanRows {
		return c.PeakRows
	}
	return c.ScanRows
}

// QueryPlan is a parsed query with each of its BGPs planned, in the order
// evalGroup reaches them. It is never modified, so it may be executed more
// than once, by the engine that planned it.
type QueryPlan struct {
	q    *sparql.Query
	bgps []bgpPlan
}

// PlanQuery plans q without executing anything.
func (e *Engine) PlanQuery(q *sparql.Query) *QueryPlan {
	p := &QueryPlan{q: q}
	e.planGroup(p, q.Where)
	return p
}

// planGroup plans g's BGP, then its UNION alternatives, then its OPTIONALs:
// the order evalGroup executes them in.
func (e *Engine) planGroup(p *QueryPlan, g *sparql.Group) {
	if len(g.Triples) > 0 {
		if e.Mode == ModePT {
			p.bgps = append(p.bgps, e.planBGPPT(g.Triples))
		} else {
			p.bgps = append(p.bgps, e.planBGP(g.Triples))
		}
	}
	for _, u := range g.Unions {
		for _, alt := range u.Alternatives {
			e.planGroup(p, alt)
		}
	}
	for _, opt := range g.Optionals {
		e.planGroup(p, opt)
	}
}

// Cost sums the plan for the cost gate: each BGP's pattern scan estimates
// into ScanRows, and its largest step estimate into PeakRows. A BGP the
// statistics prove empty has no steps: execution answers it without
// scanning. A PT plan has no steps either: it joins its units on their
// exact sizes once they are scanned.
func (p *QueryPlan) Cost() CostEstimate {
	var c CostEstimate
	for _, b := range p.bgps {
		c.Patterns += len(b.bgp)
		for _, sel := range b.sels {
			c.ScanRows = addCapped(c.ScanRows, sel.est)
		}
		for _, s := range b.steps {
			c.PeakRows = max(c.PeakRows, s.est)
		}
		if b.pt != nil {
			c.ScanRows = addCapped(c.ScanRows, b.pt.scan)
		}
	}
	return c
}

// EstimateCostNorm parses src and returns the cost of its plan without
// executing anything; a parse error is returned as-is. norm is unused: it
// keyed the parsed-query cache, which is gone. The signature stays because
// benchmark/trace.go times this call as its cost-gate layer.
func (e *Engine) EstimateCostNorm(src, norm string) (CostEstimate, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return CostEstimate{}, err
	}
	return e.PlanQuery(q).Cost(), nil
}

// bgpQueue holds the plans of the BGPs an execution has yet to reach, in
// the order PlanQuery planned them: the order evalGroup reaches them in.
type bgpQueue []bgpPlan

// next pops the plan of the BGP evalGroup reached.
func (q *bgpQueue) next() *bgpPlan {
	p := &(*q)[0]
	*q = (*q)[1:]
	return p
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
