package core

import (
	"fmt"

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
	// bits is the selection vector over table when the dataset stores
	// ExtVP reductions as bit vectors (paper Sec. 8 future work). With
	// Engine.UnifyCorrelations it may be the AND of several reductions.
	bits *bitvec.Bitset
}

// selectTable implements the paper's Algorithm 1 (TableSelection) for the
// pattern at index i of the BGP: start from the VP table of the pattern's
// predicate and switch to the ExtVP table with the best (smallest)
// selectivity factor among the pattern's SS/SO/OS correlations with the
// other patterns of the BGP. Candidates are compared on statistics alone;
// in lazy mode only the winning reduction is materialized.
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
	best := selection{table: vp, name: vp.Name, rows: vp.NumRows(), sf: 1}
	if e.Mode != ModeExtVP {
		return best
	}

	// combined accumulates the intersection of every applicable bit-vector
	// reduction when UnifyCorrelations is enabled (the paper's proposed
	// unification strategy: consider the intersections of all correlations
	// of a triple pattern).
	var combined *bitvec.Bitset
	nCombined := 0
	// bestKey is set while best names a row-copy ExtVP candidate whose
	// table has not been resolved yet; the winner is materialized (lazy
	// mode) or looked up after all candidates have been compared on
	// statistics, so losing reductions are never built.
	var bestKey *layout.ExtKey
	consider := func(key layout.ExtKey) {
		info := e.DS.ExtInfo(key)
		if info.SF == 0 {
			// Statistics prove the whole BGP empty: the correlation does
			// not exist in the dataset.
			best = selection{empty: true, name: layout.ExtVPName(e.DS.Dict, key)}
			return
		}
		if !info.Materialized || best.empty {
			return
		}
		if bits, ok := e.DS.ExtBits[key]; ok {
			if e.UnifyCorrelations {
				if combined == nil {
					combined = bits.Clone()
				} else {
					combined.AndInPlace(bits)
				}
				nCombined++
			}
			if info.SF < best.sf {
				best = selection{
					table: vp,
					name:  layout.ExtVPName(e.DS.Dict, key) + "[bits]",
					rows:  info.Rows, sf: info.SF, bits: bits,
				}
				bestKey = nil
			}
			return
		}
		if info.SF < best.sf {
			best = selection{
				name: layout.ExtVPName(e.DS.Dict, key),
				rows: info.Rows, sf: info.SF,
			}
			k := key
			bestKey = &k
		}
	}

	for j, other := range bgp {
		if j == i || best.empty {
			// Skip only the pattern's own position: a duplicate pattern
			// elsewhere in the BGP still correlates like any other.
			if best.empty {
				break
			}
			continue
		}
		if other.P.IsVar() {
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
	if !best.empty && nCombined > 1 {
		count := combined.Count()
		if count == 0 {
			// The intersection of the correlations is empty: the pattern
			// (and hence the BGP) has no solutions.
			return selection{empty: true, name: fmt.Sprintf("ExtVP∩(%d tables)", nCombined)}
		}
		if count < best.rows {
			best = selection{
				table: vp,
				name:  fmt.Sprintf("ExtVP∩(%d tables)", nCombined),
				rows:  count,
				sf:    float64(count) / float64(vp.NumRows()),
				bits:  combined,
			}
			bestKey = nil
		}
	}
	if !best.empty && bestKey != nil {
		// Resolve (and in lazy mode, build) the winning reduction only.
		if e.Lazy != nil {
			best.table = e.Lazy.EnsureTable(*bestKey)
		} else {
			best.table = e.DS.ExtVP[*bestKey]
		}
		if best.table == nil {
			// Defensive: statistics promised a table that is not there;
			// fall back to the always-valid VP selection.
			best = selection{table: vp, name: vp.Name, rows: vp.NumRows(), sf: 1}
		}
	}
	return best
}

// estimatePatternRows scales a selection's row count by the bound-term
// selectivity of the pattern: each bound position divides the estimate by
// the distinct-value count of the corresponding column in the chosen table
// (independence assumption), so `?x follows <alice>` is estimated at
// |table| / NDV(o) rather than |table|. Columns without statistics leave
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
		if ndv := sel.table.DistinctOf(col); ndv > 1 {
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
// rows, NDV being the distinct count of the scanned column in the selected
// table. The check costs O(1) and bounds the keys to a sixteenth of the
// column's values. In a sweep over WatDiv at scale 10, ratios 1 and 4 also
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
// becomes a constant condition, so zone maps apply. The triples table is
// never pushed into, so ModeTT stays the unpushed reference.
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
		if ci < 0 || rows > sel.table.DistinctOf(pos.col)/keyPushRatio {
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

// evalBGP compiles and executes a basic graph pattern. Table selections
// (Algorithm 1) come from the selection cache on repeat queries; the
// planner then fixes the join order (greedy smallest-estimate-first,
// connectivity-preserving, when JoinOrderOpt; textual order — the paper's
// Algorithm 3 — otherwise) and picks a broadcast or shuffle strategy per
// join from the estimated side sizes. Filters whose variables are covered
// by a single pattern are compiled into that pattern's scan (the matching
// consumed entry is set). ModePT routes to the property-table planner,
// which consumes no filters.
func (e *Engine) evalBGP(ex *engine.Exec, bgp []sparql.TriplePattern, filters []sparql.Expression, consumed []bool, res *Result) (*engine.Relation, error) {
	if e.Mode == ModePT {
		return e.evalBGPPT(ex, bgp, res)
	}

	// Pattern strings feed the selection-cache key, the plan rows and the
	// per-join explain entries; String() allocates, so render each exactly
	// once per evaluation.
	tpStrs := make([]string, len(bgp))
	for i, tp := range bgp {
		tpStrs[i] = tp.String()
	}

	sels, empty, cached := e.bgpSelections(bgp, tpStrs)
	if cached {
		res.SelectionCacheHits++
	} else {
		res.SelectionCacheMisses++
	}
	base := len(res.Plan)
	for i, sel := range sels {
		res.Plan = append(res.Plan, PatternPlan{
			Pattern: tpStrs[i], Table: sel.name, Rows: sel.rows, SF: sel.sf, Est: sel.est,
		})
	}
	if empty {
		// Statistics-only answer (paper Sec. 6.1): no execution at all.
		res.StatsOnly = true
		return e.emptyRelation(ex, bgp), nil
	}

	// Pattern variable lists are consulted all over the planning loop
	// (ordering, star detection, schema accumulation); Vars() allocates, so
	// compute each one exactly once.
	tpVars := make([][]string, len(bgp))
	for i, tp := range bgp {
		tpVars[i] = tp.Vars()
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
				if !consumed[fi] && varsSubset(f.Vars(), tpVars[i]) {
					exprs = append(exprs, f)
					consumed[fi] = true
				}
			}
			if len(exprs) > 0 {
				preds[i] = e.filterPred(tpVars[i], exprs)
			}
		}
	}

	order := e.planJoinOrder(bgp, tpVars, sels)
	for _, idx := range order {
		res.JoinOrder = append(res.JoinOrder, base+idx)
	}

	parts := e.Cluster.Partitions()
	var rel *engine.Relation
	var bound []string
	est := 0 // estimated cardinality of the accumulated intermediate
	for oi := 0; oi < len(order); oi++ {
		idx := order[oi]
		// A cancelled query stops between pattern joins; the row-batch
		// checks inside each operator cover the stretch in between.
		if err := ex.Err(); err != nil {
			return nil, err
		}
		tp, sel := bgp[idx], sels[idx]
		var pred func(engine.Row) bool
		if preds != nil {
			pred = preds[idx]
		}
		if rel == nil {
			scan, st, _, ok, err := e.compilePattern(ex, tp, sel, pred, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				res.StatsOnly = true
				return e.emptyRelation(ex, bgp), nil
			}
			res.Plan[base+idx].Scanned, res.Plan[base+idx].Pruned = st.Scanned, st.Pruned
			rel, est = scan, sel.est
			bound = joinedSchema(bound, tpVars[idx])
			continue
		}
		// A run of ≥2 upcoming shuffle joins all hitting the same hub
		// variable evaluates as one star join: the intermediate is hashed
		// once and the star's output materialized once.
		if run, hub := e.starRun(tpVars, sels, order, oi, bound, rel, est); len(run) >= 2 {
			rights := make([]*engine.Relation, len(run))
			for i, ridx := range run {
				var rpred func(engine.Row) bool
				if preds != nil {
					rpred = preds[ridx]
				}
				scan, st, _, ok, err := e.compilePattern(ex, bgp[ridx], sels[ridx], rpred, nil)
				if err != nil {
					return nil, err
				}
				if !ok {
					res.StatsOnly = true
					return e.emptyRelation(ex, bgp), nil
				}
				res.Plan[base+ridx].Scanned, res.Plan[base+ridx].Pruned = st.Scanned, st.Pruned
				rights[i] = scan
			}
			coPart := rel.CoPartitionedBy(rel.ColIndex(hub), parts)
			joined, stats := ex.StarJoin(rel, rights)
			for i, ridx := range run {
				res.Joins = append(res.Joins, JoinPlan{
					Right: tpStrs[ridx], Strategy: strategyStar,
					LeftRows: est, RightRows: sels[ridx].est,
					RowsShuffled: stats[i].RowsShuffled, Comparisons: stats[i].Comparisons,
					CoPartitioned: coPart || i > 0,
				})
				est = estimateJoinRows(est, sels[ridx].est)
				bound = joinedSchema(bound, tpVars[ridx])
			}
			rel = joined
			oi += len(run) - 1
			continue
		}
		scan, st, keys, ok, err := e.compilePattern(ex, tp, sel, pred, rel)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		pp := &res.Plan[base+idx]
		pp.Scanned, pp.Pruned, pp.Keys = st.Scanned, st.Pruned, keys
		coPart := coPartitionedLeft(rel, tpVars[idx], parts)
		strat := chooseJoinStrategy(est, sel.est, parts, coPart)
		if !sharesVar(bound, tpVars[idx]) {
			// Disconnected BGP: the cross join is unavoidable here (the
			// planner already deferred it past every connected pattern).
			strat = strategyCross
		}
		before := ex.MetricsSnapshot()
		rel = ex.JoinWith(rel, scan, engineStrategy(strat))
		d := ex.MetricsSnapshot().Sub(before)
		res.Joins = append(res.Joins, JoinPlan{
			Right: tpStrs[idx], Strategy: strat, LeftRows: est, RightRows: sel.est,
			RowsShuffled: d.RowsShuffled, Comparisons: d.JoinComparisons,
			CoPartitioned: coPart && strat == strategyShuffle,
		})
		if strat == strategyCross {
			est = est * sel.est
		} else {
			est = estimateJoinRows(est, sel.est)
		}
		bound = joinedSchema(bound, tpVars[idx])
	}
	if rel == nil {
		rel = e.unitRelation(ex)
	}
	return rel, nil
}

// starRun finds the maximal run of order members starting at oi that can
// evaluate as one engine StarJoin against the current intermediate: each
// member shares exactly one variable — the same hub — with the bound
// schema, members pairwise share no variable beyond the hub, and the
// planner would pick a shuffle for every one of them (a broadcast-sized
// side keeps the ordinary per-join path, which replicates it instead of
// shuffling the intermediate). Runs shorter than two are not stars.
func (e *Engine) starRun(tpVars [][]string, sels []selection, order []int, oi int, bound []string, rel *engine.Relation, est int) ([]int, string) {
	parts := e.Cluster.Partitions()
	hub := ""
	var run []int
	runningEst := est
	for ; oi < len(order); oi++ {
		idx := order[oi]
		shared := ""
		for _, v := range tpVars[idx] {
			if indexOf(bound, v) < 0 {
				continue
			}
			if shared != "" && shared != v {
				return run, hub // two bound vars: not a star arm
			}
			shared = v
		}
		if shared == "" {
			return run, hub
		}
		if hub == "" {
			hub = shared
		} else if shared != hub {
			return run, hub
		}
		// Arms must be independent of each other beyond the hub.
		for _, prev := range run {
			for _, v := range tpVars[idx] {
				if v != hub && indexOf(tpVars[prev], v) >= 0 {
					return run, hub
				}
			}
		}
		coPart := len(run) > 0 || rel.CoPartitionedBy(rel.ColIndex(hub), parts)
		if chooseJoinStrategy(runningEst, sels[idx].est, parts, coPart) != strategyShuffle {
			return run, hub
		}
		run = append(run, idx)
		runningEst = estimateJoinRows(runningEst, sels[idx].est)
	}
	return run, hub
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
