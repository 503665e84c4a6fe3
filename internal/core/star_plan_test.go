package core

import (
	"fmt"
	"reflect"
	"testing"

	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// bigStarTriples builds a star workload where every arm is too big to
// broadcast: 30 hub subjects carry all three predicates, plus extra
// subjects that pad the arms to distinct sizes (p1=40, p2=36, p3=30 rows)
// so the greedy order is deterministic.
func bigStarTriples() []rdf.Triple {
	iri := rdf.NewIRI
	var ts []rdf.Triple
	for i := 0; i < 30; i++ {
		s := iri(fmt.Sprintf("urn:s%d", i))
		ts = append(ts,
			rdf.Triple{S: s, P: iri("urn:p1"), O: iri(fmt.Sprintf("urn:o1_%d", i))},
			rdf.Triple{S: s, P: iri("urn:p2"), O: iri(fmt.Sprintf("urn:o2_%d", i))},
			rdf.Triple{S: s, P: iri("urn:p3"), O: iri(fmt.Sprintf("urn:o3_%d", i))},
		)
	}
	for i := 0; i < 10; i++ {
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("urn:e1_%d", i)), P: iri("urn:p1"), O: iri("urn:x")})
	}
	for i := 0; i < 6; i++ {
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("urn:e2_%d", i)), P: iri("urn:p2"), O: iri("urn:y")})
	}
	return ts
}

const bigStarQuery = `SELECT * WHERE {
	?x <urn:p1> ?a . ?x <urn:p2> ?b . ?x <urn:p3> ?c
}`

// TestPlannerChainsShuffleJoinsOnStar: when every arm of a star BGP is big
// enough that the pairwise choice shuffles, the star runs as a chain of
// shuffle joins on the hub. The first join hashes both inputs; its output
// arrives partitioned on the hub, so the engine skips its shuffle and the
// second join moves only the new arm. A re-run, whose selections come from
// the selection cache, must report identical numbers.
func TestPlannerChainsShuffleJoinsOnStar(t *testing.T) {
	ds := layout.Build(bigStarTriples(), layout.Options{BuildExtVP: false})
	e := &Engine{
		DS: ds, Cluster: engine.NewCluster(4), Mode: ModeVP, JoinOrderOpt: true,
		Selections: NewSelectionCache(16),
	}
	res, err := e.Query(bigStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy order: p3 (30 rows) first, then p2 (36), then p1 (40).
	if !reflect.DeepEqual(res.JoinOrder, []int{2, 1, 0}) {
		t.Fatalf("JoinOrder = %v, want [2 1 0]", res.JoinOrder)
	}
	if len(res.Joins) != 2 {
		t.Fatalf("Joins = %+v, want 2 steps", res.Joins)
	}
	for i, j := range res.Joins {
		if j.Strategy != "shuffle" {
			t.Errorf("join %d strategy = %q, want shuffle", i, j.Strategy)
		}
		if j.Comparisons == 0 {
			t.Errorf("join %d reports no comparisons", i)
		}
	}
	// Join 0 moves p3's 30 rows and p2's 36; join 1 moves only p1's 40 —
	// the intermediate is already hashed on ?x.
	if res.Joins[0].RowsShuffled != 66 || res.Joins[1].RowsShuffled != 40 {
		t.Errorf("RowsShuffled = %d, %d; want 66, 40",
			res.Joins[0].RowsShuffled, res.Joins[1].RowsShuffled)
	}
	if res.Len() != 30 {
		t.Errorf("rows = %d, want 30", res.Len())
	}

	// The re-run executes the same chain and must report the same explain
	// numbers (they feed headers and -explain output).
	res2, err := e.Query(bigStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SelectionCacheHits != 1 {
		t.Error("second run did not hit the selection cache")
	}
	if !reflect.DeepEqual(res2.Joins, res.Joins) {
		t.Errorf("cached-run Joins = %+v, want %+v", res2.Joins, res.Joins)
	}

	tt := New(ds, ModeTT)
	ttRes, err := tt.Query(bigStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(res), canon(ttRes)) {
		t.Error("shuffle-chain result differs from TT ground truth")
	}
}
