package core

import (
	"fmt"
	"slices"
	"sort"

	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/sparql"
	"s2rdf/internal/store"
)

// ptView wraps the property table as a columnar store table so the regular
// Scan operator can read it: column "s" plus one column per functional
// predicate (named "p<ID>").
type ptView struct {
	table *store.Table
	colOf map[dict.ID]string
}

func ptCol(p dict.ID) string { return fmt.Sprintf("p%d", p) }

// ptTable returns the property-table view, building it exactly once even
// under concurrent queries.
func (e *Engine) ptTable() *ptView {
	e.ptOnce.Do(func() {
		pt := e.DS.PT
		v := &ptView{}
		cols := []string{"s"}
		data := [][]dict.ID{pt.Subjects}
		v.colOf = make(map[dict.ID]string, len(pt.Columns))
		preds := make([]dict.ID, 0, len(pt.Columns))
		for p := range pt.Columns {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
		for _, p := range preds {
			name := ptCol(p)
			v.colOf[p] = name
			cols = append(cols, name)
			data = append(data, pt.Columns[p])
		}
		v.table = &store.Table{Name: "PT", Cols: cols, Data: data, SortCol: -1}
		// Subjects are sorted, so the pass records "s" as the sort column;
		// star scans with a bound subject then binary search instead of
		// reading the wide table. The PT planner never consults NDV, so the
		// exact distinct counts of the wide columns are skipped.
		v.table.FinalizeWithoutNDV()
		e.pt = v
	})
	return e.pt
}

// starCells is a star's scan weight, the cells its scan reads: the rows in
// its subject's binary-searched run of the sorted, distinct subject column
// — every row for an unbound subject, at most one for a bound one — times
// the table's width. The planner prices a star with it and evalBGPPT
// meters the same figure.
func (e *Engine) starCells(subj sparql.Node) int {
	pt := e.DS.PT
	if subj.IsVar() {
		return pt.NumRows() * len(pt.Columns)
	}
	if _, ok := slices.BinarySearch(pt.Subjects, e.DS.Dict.Lookup(subj.Term)); ok {
		return len(pt.Columns)
	}
	return 0
}

// ptPlan is a BGP planned the way Sempala plans it (paper Sec. 3.2):
// patterns whose predicate is stored as a property-table column are grouped
// by subject into stars, each answered with a single scan of the unified
// table (no joins within a star); multi-valued and unbound-predicate
// patterns fall back to the auxiliary (VP) tables and are joined in.
type ptPlan struct {
	// stars lists each star's pattern indices, stars in order of their
	// subject's first appearance.
	stars [][]int
	// fallback lists the other patterns' indices and sels their tables:
	// under ModePT, selectTable picks the predicate's VP table, or TT for
	// an unbound predicate.
	fallback []int
	sels     []selection
	// scan is the plan's scan estimate: each star at the weight its scan
	// is metered at (starCells), each fallback at its selection's.
	scan int
}

// planBGPPT plans a BGP over the property table without touching any data.
// It leaves pt nil when the store has no property table.
func (e *Engine) planBGPPT(bgp []sparql.TriplePattern) bgpPlan {
	p := newBGPPlan(bgp)
	if e.DS.PT == nil {
		return p
	}
	pp := &ptPlan{}
	star := make(map[string]int) // subject node -> index into stars
	for i, tp := range bgp {
		if tp.P.IsVar() || !e.DS.PT.IsFunctional(e.DS.Dict.Lookup(tp.P.Term)) {
			sel := e.selectTable(i, bgp)
			sel.est = estimatePatternRows(sel, tp)
			pp.fallback = append(pp.fallback, i)
			pp.sels = append(pp.sels, sel)
			pp.scan = addCapped(pp.scan, sel.est)
			continue
		}
		key := tp.S.String()
		si, seen := star[key]
		if !seen {
			si = len(pp.stars)
			star[key] = si
			pp.stars = append(pp.stars, nil)
			pp.scan = addCapped(pp.scan, e.starCells(tp.S))
		}
		pp.stars[si] = append(pp.stars[si], i)
	}
	p.pt = pp
	return p
}

// evalBGPPT executes a property-table plan: one wide-table scan per star,
// one VP/TT scan per fallback pattern, then joins of the units.
func (e *Engine) evalBGPPT(ex *engine.Exec, p *bgpPlan, res *Result) (*engine.Relation, error) {
	if p.pt == nil {
		return nil, fmt.Errorf("core: property table not built (layout.Options.BuildPT)")
	}
	pt := e.DS.PT
	view := e.ptTable()
	bgp := p.bgp

	type unit struct {
		rel  *engine.Relation
		desc string
	}
	var units []unit
	addPlan := func(pattern, table string, rows, est int, st engine.ScanStats) {
		res.Plan = append(res.Plan, PatternPlan{
			Pattern: pattern, Table: table, Rows: rows, SF: 1, Est: est,
			Scanned: st.Scanned, Pruned: st.Pruned,
		})
	}

	// Compile each star group as one wide-table scan.
	for _, star := range p.pt.stars {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		var projs []engine.ScanProjection
		var conds []engine.ScanCondition
		var nullChecks []string
		subj := bgp[star[0]].S
		if subj.IsVar() {
			projs = append(projs, engine.ScanProjection{Col: "s", As: subj.Var})
		} else {
			id := e.DS.Dict.Lookup(subj.Term)
			if id == dict.NoID {
				res.StatsOnly = true
				return e.emptyRelation(ex, bgp), nil
			}
			conds = append(conds, engine.ScanCondition{Col: "s", Value: id})
		}
		desc := ""
		for _, i := range star {
			tp := bgp[i]
			col := view.colOf[e.DS.Dict.Lookup(tp.P.Term)]
			if tp.O.IsVar() {
				projs = append(projs, engine.ScanProjection{Col: col, As: tp.O.Var})
				nullChecks = append(nullChecks, tp.O.Var)
			} else {
				id := e.DS.Dict.Lookup(tp.O.Term)
				if id == dict.NoID {
					res.StatsOnly = true
					return e.emptyRelation(ex, bgp), nil
				}
				conds = append(conds, engine.ScanCondition{Col: col, Value: id})
			}
			desc += p.tpStrs[i] + "; "
		}
		rel, st, err := ex.ScanTable(view.table, engine.ScanSpec{Projs: projs, Conds: conds})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInternal, err)
		}
		// A property-table scan reads the full width of the unified table
		// over its subject's run, and the rows outside the run are pruned
		// at the same width, so scanned and pruned cells sum to the table's.
		// The narrow Scan counted rows; meter the difference.
		cells := e.starCells(subj)
		pruned := int64(pt.NumRows()*len(pt.Columns) - cells)
		ex.AddRowsScanned(int64(cells) - st.Scanned)
		ex.AddRowsPruned(pruned - st.Pruned)
		st.Scanned, st.Pruned = int64(cells), pruned
		// Required patterns must have a value: drop Null cells.
		if len(nullChecks) > 0 {
			idxs := make([]int, 0, len(nullChecks))
			for _, v := range nullChecks {
				if i := rel.ColIndex(v); i >= 0 {
					idxs = append(idxs, i)
				}
			}
			rel = ex.Filter(rel, func(row engine.Row) bool {
				for _, i := range idxs {
					if row[i] == engine.Null {
						return false
					}
				}
				return true
			})
		}
		addPlan(desc, "PT", pt.NumRows(), cells, st)
		units = append(units, unit{rel: rel, desc: desc})
	}

	// Compile fallback patterns over their VP/TT (auxiliary) tables.
	for fi, i := range p.pt.fallback {
		sel, desc := p.pt.sels[fi], p.tpStrs[i]
		if sel.empty {
			addPlan(desc, sel.name, sel.rows, sel.est, engine.ScanStats{})
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		scan, st, _, ok, err := e.compilePattern(ex, bgp[i], sel, nil, nil)
		addPlan(desc, sel.name, sel.rows, sel.est, st)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		units = append(units, unit{rel: scan, desc: desc})
	}

	if len(units) == 0 {
		return e.unitRelation(ex), nil
	}

	// Join the units smallest-first, avoiding cross joins. PT units are
	// already materialized, so the order and the strategies run on exact
	// cardinalities.
	vars := make([][]string, len(units))
	for i, u := range units {
		vars[i] = u.rel.Schema
	}
	seq := greedyOrder(vars, func(i, j int) bool { return units[i].rel.NumRows() < units[j].rel.NumRows() })
	rel := units[seq[0]].rel
	for _, i := range seq[1:] {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		rel = e.joinRelations(ex, res, units[i].desc, rel, units[i].rel, false, nil)
	}
	return rel, nil
}
