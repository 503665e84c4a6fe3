package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// TestRepresentationsAgreeWatDiv holds the bit-vector ExtVP store (the
// default) to the materialized one (layout Options.Materialize) on seeded
// WatDiv Basic, ST and IL instances at scale 2, each as written and with
// ORDER BY ?v0 LIMIT 10. A bit-vector reduction carries the statistics of
// its row copy, so the two stores must plan alike: every pattern's table
// (modulo the "[bits]" suffix), estimate and pushed keys, the join order,
// every join's strategy, and the rows scanned. Full answers must equal each
// other and a reference: the naive evaluator (internal/ref) on the Basic
// instances, ModeTT where the naive search is beyond this scale (C3, ST,
// IL: seconds to minutes each). A top-k answer is fixed only up to ties on
// ?v0, so both stores must return the same multiset of ?v0 values as the
// reference, and only rows of the full answer. ST-3-1, ST-5-2 and IL-3-8,
// which return 10⁵–10⁶ rows and more, are left out.
func TestRepresentationsAgreeWatDiv(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 2, Seed: 1})
	bitsDS := layout.Build(data.Triples, layout.DefaultOptions())
	bits, tt := New(bitsDS, ModeExtVP), New(bitsDS, ModeTT)
	mat := New(layout.Build(data.Triples, materializedOptions()), ModeExtVP)
	huge := []string{"ST-3-1", "ST-5-2", "IL-3-8"}

	templates := append(watdiv.BasicTemplates(), watdiv.STTemplates()...)
	templates = append(templates, watdiv.ILTemplates()...)
	rng := rand.New(rand.NewSource(7))
	topk := 0
	for _, tm := range templates {
		src := strings.TrimSpace(tm.Instantiate(data, rng))
		if slices.Contains(huge, tm.Name) {
			continue
		}
		naive := tm.Shape != "ST" && !strings.HasPrefix(tm.Shape, "IL") && tm.Name != "C3"
		rb, rm := mustQuery(t, bits, src), mustQuery(t, mat, src)
		samePlans(t, tm.Name, rb, rm)
		full := rowKeys(rb)
		if !reflect.DeepEqual(full, rowKeys(rm)) {
			t.Fatalf("%s: bit vectors return %d solutions, row copies %d", tm.Name, rb.Len(), rm.Len())
		}
		if naive {
			if got, want := canon(rb), refAnswer(t, data.Triples, src, refOrder(rb, src)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d solutions, the reference %d", tm.Name, len(got), len(want))
			}
		} else if want := rowKeys(mustQuery(t, tt, src)); !reflect.DeepEqual(full, want) {
			t.Fatalf("%s: %d solutions, ModeTT %d", tm.Name, len(full), len(want))
		}
		if !slices.Contains(rb.Vars, "v0") {
			continue
		}

		reduced := src + " ORDER BY ?v0 LIMIT 10"
		rb, rm = mustQuery(t, bits, reduced), mustQuery(t, mat, reduced)
		samePlans(t, tm.Name+" top-k", rb, rm)
		var want []string
		if naive {
			want = v0Values(refAnswer(t, data.Triples, reduced, refOrder(rb, reduced)))
		} else {
			want = resultV0(mustQuery(t, tt, reduced))
		}
		if got := resultV0(rb); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, resultV0(rm)) {
			t.Fatalf("%s top-k: ?v0 values %v, row copies %v, the reference %v", tm.Name, got, resultV0(rm), want)
		}
		for _, r := range [...]*Result{rb, rm} {
			for _, row := range rowKeys(r) {
				if _, ok := slices.BinarySearch(full, row); !ok {
					t.Fatalf("%s top-k: %q is no solution of the full query", tm.Name, row)
				}
			}
		}
		topk++
	}
	if topk < len(templates)/2 {
		t.Errorf("only %d of %d templates bind ?v0", topk, len(templates))
	}
}

// samePlans fails t unless two results of one query were planned and
// metered alike, table names compared without the "[bits]" suffix.
func samePlans(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Plan) != len(b.Plan) {
		t.Fatalf("%s: %d plan rows against %d", name, len(a.Plan), len(b.Plan))
	}
	for i := range a.Plan {
		pa, pb := a.Plan[i], b.Plan[i]
		if strings.TrimSuffix(pa.Table, "[bits]") != pb.Table || pa.Est != pb.Est || pa.Keys != pb.Keys {
			t.Fatalf("%s pattern %d: %s est %d keys %d, row copies %s est %d keys %d",
				name, i, pa.Table, pa.Est, pa.Keys, pb.Table, pb.Est, pb.Keys)
		}
	}
	if !reflect.DeepEqual(a.JoinOrder, b.JoinOrder) {
		t.Fatalf("%s: join order %v, row copies %v", name, a.JoinOrder, b.JoinOrder)
	}
	if len(a.Joins) != len(b.Joins) {
		t.Fatalf("%s: %d joins, row copies %d", name, len(a.Joins), len(b.Joins))
	}
	for i := range a.Joins {
		if a.Joins[i].Strategy != b.Joins[i].Strategy {
			t.Fatalf("%s join %d: %s, row copies %s", name, i, a.Joins[i].Strategy, b.Joins[i].Strategy)
		}
	}
	if a.Metrics.RowsScanned != b.Metrics.RowsScanned {
		t.Fatalf("%s: %d rows scanned, row copies %d", name, a.Metrics.RowsScanned, b.Metrics.RowsScanned)
	}
}

// refOrder is the pattern order refAnswer should try for src: the engine's
// join order, or the written order for a statistics-only answer, which
// joins nothing.
func refOrder(r *Result, src string) []int {
	if !r.StatsOnly {
		return r.JoinOrder
	}
	order := make([]int, len(sparql.MustParse(src).Where.Triples))
	for i := range order {
		order[i] = i
	}
	return order
}

// rowKeys renders a result's rows, terms in Vars order, sorted: a cheaper
// canonical form than canon for comparing results of one query.
func rowKeys(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var sb strings.Builder
		for _, term := range row {
			sb.WriteString(string(term))
			sb.WriteByte(0)
		}
		out[i] = sb.String()
	}
	slices.Sort(out)
	return out
}

// resultV0 returns a result's sorted ?v0 values, rendered as canon renders
// them.
func resultV0(r *Result) []string {
	col := slices.Index(r.Vars, "v0")
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = string(row[col])
	}
	slices.Sort(out)
	return out
}

// v0Values extracts the sorted ?v0 members of canonical solution strings.
func v0Values(rows []string) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		for _, kv := range strings.Split(row, ";") {
			if v, ok := strings.CutPrefix(kv, "v0="); ok {
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}
