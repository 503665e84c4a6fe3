// Package ref implements a deliberately naive reference evaluator for
// SPARQL basic graph patterns: direct pattern matching over the triple
// list, with no indexes, no statistics and no join optimization. It is the
// gold standard the differential tests compare every optimized engine
// against.
package ref

import (
	"sort"
	"strconv"
	"strings"

	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
)

// Binding maps variables to terms.
type Binding = sparql.Binding

// EvalBGP returns all solution mappings of the BGP over the triples, by
// exhaustive backtracking.
func EvalBGP(triples []rdf.Triple, bgp []sparql.TriplePattern) []Binding {
	var out []Binding
	var rec func(i int, b Binding)
	rec = func(i int, b Binding) {
		if i == len(bgp) {
			cp := make(Binding, len(b))
			for k, v := range b {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		tp := bgp[i]
		for _, t := range triples {
			if !tp.P.IsVar() && tp.P.Term != t.P {
				continue // cannot match: skip it before binding anything
			}
			var added []string
			ok := true
			bind := func(n sparql.Node, v rdf.Term) {
				if !ok {
					return
				}
				if !n.IsVar() {
					if n.Term != v {
						ok = false
					}
					return
				}
				if prev, exists := b[n.Var]; exists {
					if prev != v {
						ok = false
					}
					return
				}
				b[n.Var] = v
				added = append(added, n.Var)
			}
			bind(tp.S, t.S)
			bind(tp.P, t.P)
			bind(tp.O, t.O)
			if ok {
				rec(i+1, b)
			}
			for _, v := range added {
				delete(b, v)
			}
		}
	}
	rec(0, Binding{})
	return out
}

// EvalQuery evaluates a full parsed query (group with filters, OPTIONAL and
// UNION plus solution modifiers) by direct semantics.
func EvalQuery(triples []rdf.Triple, q *sparql.Query) []Binding {
	sols := evalGroup(triples, q.Where)
	if q.HasAggregates() {
		sols = aggregate(sols, q)
	}
	vars := q.SelectVars()
	// Projection.
	for i, b := range sols {
		p := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := b[v]; ok {
				p[v] = t
			}
		}
		sols[i] = p
	}
	if q.Distinct {
		seen := map[string]bool{}
		var dedup []Binding
		for _, b := range sols {
			k := Canon(b)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, b)
			}
		}
		sols = dedup
	}
	if len(q.OrderBy) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			for _, k := range q.OrderBy {
				a, b := sols[i][k.Var], sols[j][k.Var]
				if a == b {
					continue
				}
				less := a < b
				if k.Desc {
					less = !less
				}
				return less
			}
			return false
		})
	}
	if q.Offset > 0 {
		if q.Offset >= len(sols) {
			sols = nil
		} else {
			sols = sols[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(sols) {
		sols = sols[:q.Limit]
	}
	return sols
}

func evalGroup(triples []rdf.Triple, g *sparql.Group) []Binding {
	sols := []Binding{{}}
	if len(g.Triples) > 0 {
		sols = EvalBGP(triples, g.Triples)
	}
	for _, u := range g.Unions {
		var alt []Binding
		for _, a := range u.Alternatives {
			alt = append(alt, evalGroup(triples, a)...)
		}
		sols = joinSolutions(sols, alt)
	}
	// SPARQL group semantics: OPTIONAL left-joins the group pattern; the
	// optional part's own filters act inside the join.
	for _, opt := range g.Optionals {
		inner := evalGroup(triples, &sparql.Group{
			Triples: opt.Triples, Optionals: opt.Optionals, Unions: opt.Unions,
		})
		var next []Binding
		for _, l := range sols {
			matched := false
			for _, r := range inner {
				if m, ok := merge(l, r); ok && passes(m, opt.Filters) {
					matched = true
					next = append(next, m)
				}
			}
			if !matched {
				next = append(next, l)
			}
		}
		sols = next
	}
	var kept []Binding
	for _, b := range sols {
		if passes(b, g.Filters) {
			kept = append(kept, b)
		}
	}
	return kept
}

func joinSolutions(a, b []Binding) []Binding {
	var out []Binding
	for _, l := range a {
		for _, r := range b {
			if m, ok := merge(l, r); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

func merge(a, b Binding) (Binding, bool) {
	out := make(Binding, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if prev, ok := out[k]; ok && prev != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

func passes(b Binding, filters []sparql.Expression) bool {
	for _, f := range filters {
		if !f.Eval(b) {
			return false
		}
	}
	return true
}

// Canon renders a binding canonically ("var=term;..." with sorted vars).
func Canon(b Binding) string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(string(b[k]))
		sb.WriteByte(';')
	}
	return sb.String()
}

// CanonAll renders a solution multiset canonically (sorted list).
func CanonAll(sols []Binding) []string {
	out := make([]string, len(sols))
	for i, b := range sols {
		out[i] = Canon(b)
	}
	sort.Strings(out)
	return out
}

// aggregate implements grouping and aggregation by direct semantics.
func aggregate(sols []Binding, q *sparql.Query) []Binding {
	type group struct {
		key  Binding
		rows []Binding
	}
	groups := map[string]*group{}
	var order []string
	for _, b := range sols {
		key := make(Binding, len(q.GroupBy))
		for _, v := range q.GroupBy {
			if t, ok := b[v]; ok {
				key[v] = t
			}
		}
		ks := Canon(key)
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		g.rows = append(g.rows, b)
	}
	if len(groups) == 0 && len(q.GroupBy) == 0 {
		groups[""] = &group{key: Binding{}}
		order = append(order, "")
	}
	var out []Binding
	for _, ks := range order {
		g := groups[ks]
		res := make(Binding, len(g.key)+len(q.Aggregates))
		for k, v := range g.key {
			res[k] = v
		}
		for _, a := range q.Aggregates {
			if t, ok := aggValue(g.rows, a); ok {
				res[a.As] = t
			}
		}
		out = append(out, res)
	}
	return out
}

func aggValue(rows []Binding, a sparql.Aggregate) (rdf.Term, bool) {
	if a.Var == "" { // COUNT(*)
		return rdf.NewInteger(int64(len(rows))), true
	}
	var terms []rdf.Term
	seen := map[rdf.Term]bool{}
	for _, b := range rows {
		t, ok := b[a.Var]
		if !ok {
			continue
		}
		if a.Distinct {
			if seen[t] {
				continue
			}
			seen[t] = true
		}
		terms = append(terms, t)
	}
	if a.Func == sparql.AggCount {
		return rdf.NewInteger(int64(len(terms))), true
	}
	var sum float64
	var minN, maxN float64
	var minT, maxT rdf.Term
	numeric, nonNumeric := 0, 0
	for _, t := range terms {
		if n, ok := t.Numeric(); ok {
			if numeric == 0 {
				minN, maxN = n, n
			} else {
				if n < minN {
					minN = n
				}
				if n > maxN {
					maxN = n
				}
			}
			numeric++
			sum += n
			continue
		}
		if nonNumeric == 0 {
			minT, maxT = t, t
		} else {
			if t < minT {
				minT = t
			}
			if t > maxT {
				maxT = t
			}
		}
		nonNumeric++
	}
	switch a.Func {
	case sparql.AggSum:
		return numericTerm(sum), true
	case sparql.AggAvg:
		if len(terms) == 0 || numeric == 0 {
			return rdf.NewInteger(0), true
		}
		return numericTerm(sum / float64(len(terms))), true
	case sparql.AggMin:
		if numeric > 0 {
			return numericTerm(minN), true
		}
		if nonNumeric > 0 {
			return minT, true
		}
	case sparql.AggMax:
		if numeric > 0 {
			return numericTerm(maxN), true
		}
		if nonNumeric > 0 {
			return maxT, true
		}
	}
	return "", false
}

func numericTerm(v float64) rdf.Term {
	if v == float64(int64(v)) {
		return rdf.NewInteger(int64(v))
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(v, 'f', -1, 64), rdf.XSDDecimal)
}
