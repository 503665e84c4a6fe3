package ref

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/core"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
	"s2rdf/internal/triplestore"
)

// randGraph generates a random small graph over a fixed vocabulary.
func randGraph(rng *rand.Rand) []rdf.Triple {
	ents := make([]rdf.Term, 8)
	for i := range ents {
		ents[i] = rdf.NewIRI(fmt.Sprintf("urn:e%d", i))
	}
	preds := make([]rdf.Term, 4)
	for i := range preds {
		preds[i] = rdf.NewIRI(fmt.Sprintf("urn:p%d", i))
	}
	lits := []rdf.Term{rdf.NewLiteral("x"), rdf.NewInteger(1), rdf.NewInteger(2)}

	n := rng.Intn(40)
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		t := rdf.Triple{
			S: ents[rng.Intn(len(ents))],
			P: preds[rng.Intn(len(preds))],
			O: ents[rng.Intn(len(ents))],
		}
		if rng.Intn(4) == 0 {
			t.O = lits[rng.Intn(len(lits))]
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// randBGP generates a random connected-ish BGP.
func randBGP(rng *rand.Rand) []sparql.TriplePattern {
	vars := []string{"a", "b", "c", "d"}
	node := func(allowPredVar bool) sparql.Node {
		switch rng.Intn(5) {
		case 0:
			return sparql.Bound(rdf.NewIRI(fmt.Sprintf("urn:e%d", rng.Intn(8))))
		default:
			return sparql.Variable(vars[rng.Intn(len(vars))])
		}
	}
	n := 1 + rng.Intn(3)
	bgp := make([]sparql.TriplePattern, n)
	for i := range bgp {
		var p sparql.Node
		if rng.Intn(8) == 0 {
			p = sparql.Variable(vars[rng.Intn(len(vars))])
		} else {
			p = sparql.Bound(rdf.NewIRI(fmt.Sprintf("urn:p%d", rng.Intn(4))))
		}
		bgp[i] = sparql.TriplePattern{S: node(false), P: p, O: node(false)}
	}
	return bgp
}

func bgpToQuery(bgp []sparql.TriplePattern) string {
	src := "SELECT * WHERE {\n"
	for _, tp := range bgp {
		src += "  " + tp.String() + " .\n"
	}
	return src + "}"
}

// canonResult converts a core result to the reference canonical form.
func canonResult(res *core.Result) []string {
	sols := make([]Binding, res.Len())
	for i, b := range res.Bindings() {
		sols[i] = Binding(b)
	}
	return CanonAll(sols)
}

// TestDifferentialBGPAllModes cross-checks the four S2RDF modes and the
// centralized store against the naive reference on hundreds of random
// (graph, BGP) instances.
func TestDifferentialBGPAllModes(t *testing.T) {
	rng := rand.New(rand.NewSource(20160127)) // the paper's arXiv date
	for iter := 0; iter < 200; iter++ {
		triples := randGraph(rng)
		bgp := randBGP(rng)
		src := bgpToQuery(bgp)
		want := CanonAll(EvalBGP(triples, bgp))

		opts := layout.DefaultOptions()
		opts.BuildPT = true
		ds := layout.Build(triples, opts)
		for _, mode := range []core.Mode{core.ModeExtVP, core.ModeVP, core.ModeTT, core.ModePT} {
			if mode == core.ModePT && len(triples) == 0 {
				continue // empty dataset has no PT subjects; still fine below
			}
			e := core.New(ds, mode)
			res, err := e.Query(src)
			if err != nil {
				t.Fatalf("iter %d %v: %v\nquery:\n%s", iter, mode, err, src)
			}
			got := canonResult(res)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %v: %d rows, reference %d\nquery:\n%s\ntriples: %v\ngot:  %v\nwant: %v",
					iter, mode, len(got), len(want), src, triples, got, want)
			}
		}
		if len(triples) > 0 {
			ts := triplestore.NewEngine(triplestore.New(triples, nil), triplestore.Virtuoso)
			res, err := ts.Query(src)
			if err != nil {
				t.Fatalf("iter %d triplestore: %v", iter, err)
			}
			if res.Len() != len(want) {
				t.Fatalf("iter %d triplestore: %d rows, reference %d\nquery:\n%s\ntriples: %v",
					iter, res.Len(), len(want), src, triples)
			}
		}
	}
}

// TestDifferentialBGPNaiveJoinOrder repeats the differential check with the
// join-order optimizer disabled (Algorithm 3 path).
func TestDifferentialBGPNaiveJoinOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		triples := randGraph(rng)
		bgp := randBGP(rng)
		src := bgpToQuery(bgp)
		want := CanonAll(EvalBGP(triples, bgp))

		ds := layout.Build(triples, layout.DefaultOptions())
		e := core.New(ds, core.ModeExtVP)
		e.JoinOrderOpt = false
		res, err := e.Query(src)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got := canonResult(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: got %v want %v\nquery:\n%s\ntriples: %v", iter, got, want, src, triples)
		}
	}
}

// TestDifferentialThresholds checks that every SF threshold yields the same
// results (the threshold only trades storage for speed, never answers).
func TestDifferentialThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		triples := randGraph(rng)
		bgp := randBGP(rng)
		src := bgpToQuery(bgp)
		want := CanonAll(EvalBGP(triples, bgp))

		for _, th := range []float64{0.1, 0.25, 0.5, 1.0} {
			ds := layout.Build(triples, layout.Options{BuildExtVP: true, Threshold: th})
			e := core.New(ds, core.ModeExtVP)
			res, err := e.Query(src)
			if err != nil {
				t.Fatalf("iter %d th %g: %v", iter, th, err)
			}
			if got := canonResult(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d th %g: got %v want %v\nquery:\n%s", iter, th, got, want, src)
			}
		}
	}
}

// randGroupQuery builds a random query with OPTIONAL, UNION and FILTER.
func randGroupQuery(rng *rand.Rand) string {
	src := "SELECT * WHERE {\n"
	for _, tp := range randBGP(rng) {
		src += "  " + tp.String() + " .\n"
	}
	if rng.Intn(2) == 0 {
		src += fmt.Sprintf("  OPTIONAL { ?a <urn:p%d> ?opt . }\n", rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		src += fmt.Sprintf("  { ?a <urn:p%d> ?u } UNION { ?a <urn:p%d> ?u }\n",
			rng.Intn(4), rng.Intn(4))
	}
	if rng.Intn(2) == 0 {
		src += fmt.Sprintf("  FILTER (?a != <urn:e%d>)\n", rng.Intn(8))
	}
	return src + "}"
}

// TestDifferentialGroups cross-checks OPTIONAL/UNION/FILTER handling
// against the direct-semantics reference.
func TestDifferentialGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 150; iter++ {
		triples := randGraph(rng)
		src := randGroupQuery(rng)
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("iter %d: parse: %v\n%s", iter, err, src)
		}
		want := CanonAll(EvalQuery(triples, q))

		ds := layout.Build(triples, layout.DefaultOptions())
		for _, mode := range []core.Mode{core.ModeExtVP, core.ModeVP, core.ModeTT} {
			e := core.New(ds, mode)
			res, err := e.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatalf("iter %d %v: %v\n%s", iter, mode, err, src)
			}
			if got := canonResult(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %v:\nquery:\n%s\ntriples: %v\ngot:  %v\nwant: %v",
					iter, mode, src, triples, got, want)
			}
		}
	}
}

func TestEvalQueryModifiers(t *testing.T) {
	triples := []rdf.Triple{
		{S: rdf.NewIRI("urn:e1"), P: rdf.NewIRI("urn:p0"), O: rdf.NewInteger(3)},
		{S: rdf.NewIRI("urn:e2"), P: rdf.NewIRI("urn:p0"), O: rdf.NewInteger(1)},
		{S: rdf.NewIRI("urn:e3"), P: rdf.NewIRI("urn:p0"), O: rdf.NewInteger(2)},
	}
	q := sparql.MustParse(`SELECT ?o WHERE { ?s <urn:p0> ?o } ORDER BY ?o LIMIT 2 OFFSET 1`)
	sols := EvalQuery(triples, q)
	if len(sols) != 2 {
		t.Fatalf("rows = %d", len(sols))
	}
	q2 := sparql.MustParse(`SELECT DISTINCT ?p WHERE { ?s ?p ?o }`)
	if sols := EvalQuery(triples, q2); len(sols) != 1 {
		t.Errorf("distinct rows = %d", len(sols))
	}
}

func TestCanon(t *testing.T) {
	b := Binding{"x": rdf.NewIRI("urn:1"), "a": rdf.NewLiteral("v")}
	if got := Canon(b); got != `a="v";x=<urn:1>;` {
		t.Errorf("Canon = %q", got)
	}
	all := CanonAll([]Binding{{"x": rdf.NewIRI("urn:2")}, {"x": rdf.NewIRI("urn:1")}})
	if all[0] != "x=<urn:1>;" {
		t.Errorf("CanonAll not sorted: %v", all)
	}
}

// TestDifferentialBitVectors cross-checks the bit-vector ExtVP
// representation against the reference on random instances.
func TestDifferentialBitVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for iter := 0; iter < 150; iter++ {
		triples := randGraph(rng)
		bgp := randBGP(rng)
		src := bgpToQuery(bgp)
		want := CanonAll(EvalBGP(triples, bgp))

		ds := layout.Build(triples, layout.DefaultOptions())

		res, err := core.New(ds, core.ModeExtVP).Query(src)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got := canonResult(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d:\nquery:\n%s\ntriples: %v\ngot:  %v\nwant: %v",
				iter, src, triples, got, want)
		}
	}
}

// TestDifferentialLazy cross-checks ExtVP at threshold 1 on repeated
// queries: the cold run selects tables by Algorithm 1, the warm run takes
// its selection from the selection cache, and both must match the
// reference. (The name dates from the deferred ExtVP build this test
// used to exercise; every reduction is now built at load.)
func TestDifferentialLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for iter := 0; iter < 80; iter++ {
		triples := randGraph(rng)
		bgp := randBGP(rng)
		src := bgpToQuery(bgp)
		want := CanonAll(EvalBGP(triples, bgp))

		ds := layout.Build(triples, layout.Options{BuildExtVP: true, Threshold: 1})
		e := core.New(ds, core.ModeExtVP)
		for pass := 0; pass < 2; pass++ { // cold then warm
			res, err := e.Query(src)
			if err != nil {
				t.Fatalf("iter %d pass %d: %v", iter, pass, err)
			}
			if got := canonResult(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d pass %d:\nquery:\n%s\ntriples: %v\ngot:  %v\nwant: %v",
					iter, pass, src, triples, got, want)
			}
		}
	}
}

// TestDifferentialAggregates cross-checks GROUP BY / COUNT / SUM / AVG /
// MIN / MAX against the reference on random graphs.
func TestDifferentialAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	funcs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	for iter := 0; iter < 120; iter++ {
		triples := randGraph(rng)
		fn := funcs[rng.Intn(len(funcs))]
		distinct := ""
		if fn == "COUNT" && rng.Intn(2) == 0 {
			distinct = "DISTINCT "
		}
		var src string
		if rng.Intn(2) == 0 {
			src = fmt.Sprintf(`SELECT ?a (%s(%s?c) AS ?agg) WHERE {
				?a <urn:p0> ?b . ?b <urn:p1> ?c .
			} GROUP BY ?a`, fn, distinct)
		} else {
			src = fmt.Sprintf(`SELECT (%s(%s?b) AS ?agg) WHERE {
				?a <urn:p%d> ?b .
			}`, fn, distinct, rng.Intn(4))
		}
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, src)
		}
		want := CanonAll(EvalQuery(triples, q))

		ds := layout.Build(triples, layout.DefaultOptions())
		for _, mode := range []core.Mode{core.ModeExtVP, core.ModeVP, core.ModeTT} {
			e := core.New(ds, mode)
			res, err := e.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatalf("iter %d %v: %v\n%s", iter, mode, err, src)
			}
			if got := canonResult(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %v:\nquery:\n%s\ntriples: %v\ngot:  %v\nwant: %v",
					iter, mode, src, triples, got, want)
			}
		}
	}
}
