package core

import (
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
	"s2rdf/internal/ref"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// TestKeyPushdownWatDiv checks the run-time semi-join where its gate fires.
// At WatDiv scale 2 the intermediates of the selective templates L1, S1 and
// F5 hold at most NDV/16 rows when they reach a later pattern, so their
// keys are pushed into that pattern's scan; the ≤40-triple differential
// graphs never get there. Every answer must equal ModeTT's, which is never
// pushed into, and the naive evaluator's.
func TestKeyPushdownWatDiv(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 2, Seed: 1})
	mat := layout.Build(data.Triples, materializedOptions())
	bits := layout.Build(data.Triples, layout.DefaultOptions())
	engines := []struct {
		name string
		e    *Engine
	}{
		{"ExtVP", New(mat, ModeExtVP)},
		{"ExtVP bits", New(bits, ModeExtVP)},
		{"VP", New(mat, ModeVP)},
	}
	tt := New(mat, ModeTT)

	templates := map[string]watdiv.Template{}
	for _, tm := range watdiv.BasicTemplates() {
		templates[tm.Name] = tm
	}
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"L1", "S1", "F5"} {
		pushed := map[string]int{}
		for i := 0; i < 5; i++ {
			src := templates[name].Instantiate(data, rng)
			want := mustQuery(t, tt, src)
			for _, p := range want.Plan {
				if p.Keys != 0 {
					t.Fatalf("%s: ModeTT pushed %d keys into %s", name, p.Keys, p.Pattern)
				}
			}
			if got := refAnswer(t, data.Triples, src, want.JoinOrder); !reflect.DeepEqual(got, canon(want)) {
				t.Fatalf("%s instance %d: ModeTT has %d solutions, the reference %d", name, i, want.Len(), len(got))
			}
			for _, en := range engines {
				res := mustQuery(t, en.e, src)
				for _, p := range res.Plan {
					pushed[en.name] += p.Keys
				}
				if !reflect.DeepEqual(canon(res), canon(want)) {
					t.Fatalf("%s instance %d, %s: %d solutions, ModeTT %d", name, i, en.name, res.Len(), want.Len())
				}
			}
		}
		for _, en := range engines {
			if pushed[en.name] == 0 {
				t.Errorf("%s, %s: no keys pushed into any scan", name, en.name)
			}
		}
	}
}

// refAnswer evaluates src with the naive evaluator, canonicalized like
// canon. Two rewrites keep the backtracking search tractable at this scale
// without changing the answer: only triples whose predicate the BGP names
// can match, and the patterns are tried in the engine's join order (a
// BGP's solutions do not depend on pattern order).
func refAnswer(t *testing.T, triples []rdf.Triple, src string, order []int) []string {
	t.Helper()
	return ref.CanonAll(refSolutions(t, triples, src, order))
}

// refSolutions is refAnswer's evaluation, its solutions in the order the
// query's modifiers leave them.
func refSolutions(t *testing.T, triples []rdf.Triple, src string, order []int) []ref.Binding {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bgp := q.Where.Triples
	preds := map[rdf.Term]bool{}
	for _, tp := range bgp {
		preds[tp.P.Term] = true
	}
	var used []rdf.Triple
	for _, tr := range triples {
		if preds[tr.P] {
			used = append(used, tr)
		}
	}
	ordered := make([]sparql.TriplePattern, len(order))
	for i, idx := range order {
		ordered[i] = bgp[idx]
	}
	q.Where.Triples = ordered
	return ref.EvalQuery(used, q)
}
