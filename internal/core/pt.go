package core

import (
	"fmt"
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
	table  *store.Table
	colOf  map[dict.ID]string
	triple int // rows * width, the scan weight of the unified table
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
		// Subjects are sorted, so the zone pass records "s" as the sort
		// column and per-column zone maps; star scans with a bound subject
		// then binary search instead of reading the wide table. The PT
		// planner never consults NDV, so the exact distinct counts (a hash
		// set per wide column) are skipped.
		v.table.FinalizeZones()
		v.triple = pt.NumRows() * (len(cols) - 1)
		e.pt = v
	})
	return e.pt
}

// evalBGPPT plans a BGP the way Sempala does (paper Sec. 3.2): patterns
// whose predicate is stored as a property-table column are grouped by
// subject and answered with a single scan of the unified table (no joins
// within a star); multi-valued and unbound-predicate patterns fall back to
// the auxiliary (VP) tables and are joined in.
func (e *Engine) evalBGPPT(ex *engine.Exec, bgp []sparql.TriplePattern, res *Result) (*engine.Relation, error) {
	pt := e.DS.PT
	if pt == nil {
		return nil, fmt.Errorf("core: property table not built (layout.Options.BuildPT)")
	}
	view := e.ptTable()

	type unit struct {
		rel  *engine.Relation
		desc string
	}
	var units []unit
	addPlan := func(pattern, table string, rows int, st engine.ScanStats) {
		res.Plan = append(res.Plan, PatternPlan{
			Pattern: pattern, Table: table, Rows: rows, SF: 1, Est: rows,
			Scanned: st.Scanned, Pruned: st.Pruned,
		})
	}

	// Group PT-answerable patterns by subject node.
	groups := make(map[string][]sparql.TriplePattern)
	var order []string
	var fallback []int // indices into bgp
	for i, tp := range bgp {
		ok := false
		if !tp.P.IsVar() {
			p := e.DS.Dict.Lookup(tp.P.Term)
			if p != dict.NoID && pt.IsFunctional(p) {
				ok = true
			}
		}
		if !ok {
			fallback = append(fallback, i)
			continue
		}
		key := tp.S.String()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], tp)
	}

	// Compile each star group as one wide-table scan.
	for _, key := range order {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		star := groups[key]
		var projs []engine.ScanProjection
		var conds []engine.ScanCondition
		var nullChecks []string
		subj := star[0].S
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
		for _, tp := range star {
			p := e.DS.Dict.Lookup(tp.P.Term)
			col := view.colOf[p]
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
			desc += tp.String() + "; "
		}
		rel, st, err := ex.ScanTable(view.table, engine.ScanSpec{Projs: projs, Conds: conds})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInternal, err)
		}
		// A property-table scan touches the full width of the unified
		// table; meter the extra cells the narrow Scan did not count.
		extra := int64(view.triple - pt.NumRows())
		if extra > 0 {
			ex.AddRowsScanned(extra)
			st.Scanned += extra
		}
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
		addPlan(desc, "PT", pt.NumRows(), st)
		units = append(units, unit{rel: rel, desc: desc})
	}

	// Compile fallback patterns over VP/TT (auxiliary tables): under
	// ModePT, selectTable picks the predicate's VP table, or TT for an
	// unbound predicate.
	for _, i := range fallback {
		tp := bgp[i]
		sel := e.selectTable(i, bgp)
		if sel.empty {
			addPlan(tp.String(), sel.name, sel.rows, engine.ScanStats{})
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		scan, st, _, ok, err := e.compilePattern(ex, tp, sel, nil, nil)
		addPlan(tp.String(), sel.name, sel.rows, st)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.StatsOnly = true
			return e.emptyRelation(ex, bgp), nil
		}
		units = append(units, unit{rel: scan, desc: tp.String()})
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
