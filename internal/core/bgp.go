package core

import (
	"fmt"
	"slices"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/sparql"
	"s2rdf/internal/store"
)

// selection is the outcome of table selection for one triple pattern.
type selection struct {
	table *store.Table // nil when the result is provably empty
	name  string
	rows  int
	sf    float64
	empty bool
	// est is the planner's row estimate: rows scaled down by bound-term
	// selectivity (1/NDV per bound column, from the chosen table's
	// distinct-value counts). The join planner orders and sizes joins on
	// est; rows stays the table cardinality.
	est int
	// tt is true when the triples table was selected (predicate must be
	// constrained or projected during the scan).
	tt bool
	// bits is the selection vector over table when the selected ExtVP
	// reduction is stored as bit vectors (paper Sec. 8), the default.
	bits *bitvec.Bitset
	// reduction is the bit-vector reduction bits comes from; its distinct
	// counts stand in for table's, which are VP's.
	reduction *layout.BitTable
}

// distinct returns the distinct-value count of col among the selected rows
// (0 when unknown): a bit-vector reduction's own counts, so that planning
// over bits reads the statistics a row copy of the same reduction has.
func (sel selection) distinct(col string) int {
	if sel.reduction != nil {
		return sel.reduction.DistinctOf(col)
	}
	return sel.table.DistinctOf(col)
}

// selectTable implements the paper's Algorithm 1 (TableSelection) for the
// pattern at index i of the BGP: start from the VP table of the pattern's
// predicate and switch to the ExtVP table with the best (smallest)
// selectivity factor among the pattern's SS/SO/OS correlations with the
// other patterns of the BGP. Candidates are compared on statistics alone;
// only the winner is looked up and named.
func (e *Engine) selectTable(i int, bgp []sparql.TriplePattern) selection {
	tp := bgp[i]
	// Unbound predicate: fall back to the triples table (paper Sec. 5.2).
	if tp.P.IsVar() {
		return selection{table: e.DS.TT, name: "TT", rows: e.DS.TT.NumRows(), sf: 1, tt: true}
	}
	p := e.DS.Dict.Lookup(tp.P.Term)
	if p == dict.NoID || e.DS.VP[p] == nil {
		// The predicate does not occur in the dataset at all.
		return selection{empty: true, name: "∅(unknown predicate)"}
	}
	if e.Mode == ModeTT {
		return selection{table: e.DS.TT, name: "TT", rows: e.DS.TT.NumRows(), sf: 1, tt: true}
	}

	vp := e.DS.VP[p]
	vpSel := selection{table: vp, name: vp.Name, rows: vp.NumRows(), sf: 1}
	if e.Mode != ModeExtVP {
		return vpSel
	}

	// best is the candidate with the smallest SF so far; while bestInfo.SF
	// is 1, VP is the best choice.
	var best layout.ExtKey
	bestInfo := layout.TableInfo{Rows: vp.NumRows(), SF: 1}
	consider := func(key layout.ExtKey) {
		info := e.DS.ExtInfo(key)
		// An empty reduction (SF 0) is kept as best too: it proves the
		// whole BGP empty, since the correlation does not exist in the
		// dataset.
		if !info.Materialized && info.SF > 0 {
			return
		}
		if info.SF < bestInfo.SF {
			best, bestInfo = key, info
		}
	}

	for j, other := range bgp {
		if bestInfo.SF == 0 {
			break
		}
		// Skip only the pattern's own position: a duplicate pattern
		// elsewhere in the BGP still correlates like any other.
		if j == i || other.P.IsVar() {
			continue
		}
		p2 := e.DS.Dict.Lookup(other.P.Term)
		if p2 == dict.NoID {
			continue
		}
		// SS correlation: same subject variable.
		if tp.S.IsVar() && other.S.IsVar() && tp.S.Var == other.S.Var && p != p2 {
			consider(layout.ExtKey{Kind: layout.SS, P1: p, P2: p2})
		}
		// SO correlation: this subject joins the other pattern's object.
		if tp.S.IsVar() && other.O.IsVar() && tp.S.Var == other.O.Var {
			consider(layout.ExtKey{Kind: layout.SO, P1: p, P2: p2})
		}
		// OS correlation: this object joins the other pattern's subject.
		if tp.O.IsVar() && other.S.IsVar() && tp.O.Var == other.S.Var {
			consider(layout.ExtKey{Kind: layout.OS, P1: p, P2: p2})
		}
	}
	if bestInfo.SF == 0 {
		return selection{empty: true, name: layout.ExtVPName(e.DS.Dict, best)}
	}
	if bestInfo.SF < 1 {
		if bt, ok := e.DS.ExtBits[best]; ok {
			return selection{
				table: vp, name: bt.Name, rows: bestInfo.Rows, sf: bestInfo.SF,
				bits: bt.Bits, reduction: bt,
			}
		}
		if tbl := e.DS.ExtVP[best]; tbl != nil {
			return selection{table: tbl, name: tbl.Name, rows: bestInfo.Rows, sf: bestInfo.SF}
		}
	}
	return vpSel
}

// estimatePatternRows scales a selection's row count by the bound-term
// selectivity of the pattern: each bound position divides the estimate by
// the distinct-value count of the corresponding column among the selected
// rows (selection.distinct; independence assumption), so `?x follows
// <alice>` is estimated at |table| / NDV(o) rather than |table|. Columns without statistics leave
// the estimate unchanged.
func estimatePatternRows(sel selection, tp sparql.TriplePattern) int {
	est := sel.rows
	if sel.table == nil || est == 0 {
		return est
	}
	scale := func(col string, n sparql.Node) {
		if n.IsVar() {
			return
		}
		if ndv := sel.distinct(col); ndv > 1 {
			est = (est + ndv - 1) / ndv
		}
	}
	scale("s", tp.S)
	if sel.tt {
		scale("p", tp.P)
	}
	scale("o", tp.O)
	if est < 1 {
		est = 1
	}
	return est
}

// keyPushRatio gates the run-time semi-join (pushKeys): an intermediate
// pushes its keys into a scan only when it holds at most NDV/keyPushRatio
// rows, NDV being the distinct count of the scanned column among the
// selected rows (selection.distinct). The check costs O(1) and bounds the
// keys to a sixteenth of the column's values. In a sweep over WatDiv at scale 10, ratios 1 and 4 also
// pushed into large-result templates, where nearly every row matches and
// the key runs only add work; from 16 up none was pushed, and 16 kept the
// most of the selective templates' gain.
const keyPushRatio = 16

// pushKeys adds to spec the run-time semi-join of a scan with from, the
// intermediate its output will be joined to, and returns the number of keys
// pushed. The paper cuts query input with semi-joins that ExtVP precomputes
// for every binding; this applies the same cut with the query's own
// bindings. A variable of the pattern bound in from and landing on the
// selected table's sort column passes from's distinct keys as
// ScanSpec.Keys, one binary-searched run each. On another column a lone key
// becomes a constant condition, checked before any row is materialized. The
// triples table is never pushed into, so ModeTT stays the unpushed
// reference.
func pushKeys(spec *engine.ScanSpec, from *engine.Relation, tp sparql.TriplePattern, sel selection) int {
	if from == nil || sel.tt {
		return 0
	}
	rows := from.NumRows()
	pushed := 0
	for _, pos := range [...]struct {
		col  string
		node sparql.Node
	}{{"s", tp.S}, {"o", tp.O}} {
		if !pos.node.IsVar() || (pos.col == "o" && tp.S.IsVar() && tp.S.Var == pos.node.Var) {
			continue // ?x p ?x: the subject's keys and the equal check cover o
		}
		ci := from.ColIndex(pos.node.Var)
		if ci < 0 || rows > sel.distinct(pos.col)/keyPushRatio {
			continue
		}
		if pos.col == sel.table.SortColName() {
			spec.Keys = from.DistinctKeys(ci)
			pushed += len(spec.Keys)
		} else if key, ok := from.SoleKey(ci); ok {
			spec.Conds = append(spec.Conds, engine.ScanCondition{Col: pos.col, Value: key})
			pushed++
		}
	}
	return pushed
}

// compilePattern is the paper's Algorithm 2 (TP2SQL): turn one triple
// pattern plus its selected table into an engine scan with projections for
// variables and conditions for bound positions. pred, when non-nil, is a
// pushed-down filter evaluated at the scan's materialization boundary.
// from, when non-nil, is the intermediate the scan will be joined to; its
// keys may be pushed into the scan (pushKeys). The returned stats report
// the scan's metered and pruned input rows, keys the number pushed.
func (e *Engine) compilePattern(ex *engine.Exec, tp sparql.TriplePattern, sel selection, pred func(engine.Row) bool, from *engine.Relation) (rel *engine.Relation, st engine.ScanStats, keys int, ok bool, err error) {
	// At most three positions bind either way; exact capacities keep the
	// per-pattern compile to two fixed allocations.
	projs := make([]engine.ScanProjection, 0, 3)
	conds := make([]engine.ScanCondition, 0, 3)

	bindCol := func(col string, n sparql.Node) bool {
		if n.IsVar() {
			projs = append(projs, engine.ScanProjection{Col: col, As: n.Var})
			return true
		}
		id := e.DS.Dict.Lookup(n.Term)
		if id == dict.NoID {
			return false // bound term absent from the graph: empty result
		}
		conds = append(conds, engine.ScanCondition{Col: col, Value: id})
		return true
	}

	if !bindCol("s", tp.S) {
		return nil, st, 0, false, nil
	}
	if sel.tt {
		if !bindCol("p", tp.P) {
			return nil, st, 0, false, nil
		}
	}
	if !bindCol("o", tp.O) {
		return nil, st, 0, false, nil
	}
	spec := engine.ScanSpec{Projs: projs, Conds: conds, Sel: sel.bits, SelRows: sel.rows, Pred: pred}
	keys = pushKeys(&spec, from, tp, sel)
	rel, st, err = ex.ScanTable(sel.table, spec)
	if err != nil {
		// The selected table cannot satisfy the compiled scan: a planner
		// defect, not a property of the data — an internal error, never an
		// empty result.
		return nil, st, keys, false, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	return rel, st, keys, true, nil
}

// evalBGP executes a basic graph pattern's plan (planBGP): table
// selections (Algorithm 1, from the selection cache on repeat queries), a
// join order, and a broadcast, shuffle or cross strategy per join. Filters
// whose variables are covered by a single pattern are compiled into that
// pattern's scan (the matching consumed entry is set). When top is non-nil
// and every filter went into a scan, the final join also takes the query's
// ORDER BY … LIMIT (joinTopK). ModePT runs the property-table plan, which
// consumes no filters.
func (e *Engine) evalBGP(ex *engine.Exec, p *bgpPlan, filters []sparql.Expression, consumed []bool, res *Result, top *topKRequest) (*engine.Relation, error) {
	if e.Mode == ModePT {
		return e.evalBGPPT(ex, p, res)
	}
	bgp := p.bgp
	if p.cached {
		res.SelectionCacheHits++
	} else {
		res.SelectionCacheMisses++
	}
	base := len(res.Plan)
	for i, sel := range p.sels {
		res.Plan = append(res.Plan, PatternPlan{
			Pattern: p.tpStrs[i], Table: sel.name, Rows: sel.rows, SF: sel.sf, Est: sel.est,
		})
	}
	if p.empty {
		// Statistics-only answer (paper Sec. 6.1): no execution at all.
		res.StatsOnly = true
		return e.emptyRelation(ex, bgp), nil
	}

	// Assign each filter covered by a single pattern to the first such
	// pattern; the scan evaluates it before rows reach the output block.
	// (Pushing past the join is sound: the filter only references that
	// pattern's variables, which the join preserves per row.)
	var preds []func(engine.Row) bool
	if len(filters) > 0 {
		preds = make([]func(engine.Row) bool, len(bgp))
		for i := range bgp {
			var exprs []sparql.Expression
			for fi, f := range filters {
				if !consumed[fi] && varsSubset(f.Vars(), p.tpVars[i]) {
					exprs = append(exprs, f)
					consumed[fi] = true
				}
			}
			if len(exprs) > 0 {
				preds[i] = e.filterPred(p.tpVars[i], exprs)
			}
		}
	}

	for _, s := range p.steps {
		res.JoinOrder = append(res.JoinOrder, base+s.idx)
	}
	var rel *engine.Relation
	for si, s := range p.steps {
		// A cancelled query stops between pattern joins; the row-batch
		// checks inside each operator cover the stretch in between.
		if err := ex.Err(); err != nil {
			return nil, err
		}
		sel := p.sels[s.idx]
		var pred func(engine.Row) bool
		if preds != nil {
			pred = preds[s.idx]
		}
		scan, st, keys, ok, err := e.compilePattern(ex, bgp[s.idx], sel, pred, rel)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		pp := &res.Plan[base+s.idx]
		pp.Scanned, pp.Pruned, pp.Keys = st.Scanned, st.Pruned, keys
		if rel == nil {
			rel = scan
			continue
		}
		left := rel
		topK := si == len(p.steps)-1 && s.strategy != strategyCross && top != nil && !slices.Contains(consumed, false)
		jp := JoinPlan{Right: p.tpStrs[s.idx], Strategy: s.strategy, LeftRows: p.steps[si-1].est, RightRows: sel.est}
		rel = joinStep(ex, res, jp, func(strat engine.JoinStrategy) *engine.Relation {
			if topK {
				return joinTopK(ex, left, scan, strat, top, e.sortKey)
			}
			return ex.JoinWith(left, scan, strat)
		})
	}
	if rel == nil {
		rel = e.unitRelation(ex)
	}
	return rel, nil
}

// joinTopK joins left and right under strat and, when the engine applies
// it, the query's ORDER BY … LIMIT with them (engine.JoinTopK), recording
// that in top. A key the join's output does not bind leaves a plain join.
func joinTopK(ex *engine.Exec, left, right *engine.Relation, strat engine.JoinStrategy, top *topKRequest, keyOf func(dict.ID) engine.SortKey) *engine.Relation {
	schema := joinedSchema(left.Schema, right.Schema)
	cols := make([]engine.SortCol, len(top.keys))
	for i, k := range top.keys {
		if cols[i].Col = indexOf(schema, k.Var); cols[i].Col < 0 {
			return ex.JoinWith(left, right, strat)
		}
		cols[i].Desc = k.Desc
	}
	rel, applied := ex.JoinTopK(left, right, strat, top.window, cols, keyOf)
	top.applied = applied
	return rel
}

// emptyRelation returns a zero-row relation over all the BGP's variables.
func (e *Engine) emptyRelation(ex *engine.Exec, bgp []sparql.TriplePattern) *engine.Relation {
	var vars []string
	for _, tp := range bgp {
		vars = joinedSchema(vars, tp.Vars())
	}
	return ex.FromRows(vars, nil)
}

func sharesVar(bound, vars []string) bool {
	for _, v := range vars {
		if indexOf(bound, v) >= 0 {
			return true
		}
	}
	return false
}
