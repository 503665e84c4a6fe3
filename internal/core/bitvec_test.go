package core

import (
	"reflect"
	"strings"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

func g1BitsDataset(t *testing.T) *layout.Dataset {
	t.Helper()
	return layout.Build(g1(), layout.DefaultOptions())
}

// materializedOptions is layout.DefaultOptions with the reductions kept as
// row copies.
func materializedOptions() layout.Options {
	opts := layout.DefaultOptions()
	opts.Materialize = true
	return opts
}

func TestBitVectorModeMatchesMaterialized(t *testing.T) {
	mat := layout.Build(g1(), materializedOptions())
	bits := g1BitsDataset(t)

	queries := []string{
		q1,
		`SELECT ?y WHERE { <urn:B> <urn:follows> ?y }`,
		`SELECT ?x ?z WHERE { ?x <urn:follows> ?y . ?y <urn:likes> ?z }`,
		`SELECT * WHERE { ?a <urn:likes> ?b . ?b <urn:likes> ?c }`,
	}
	for _, src := range queries {
		rm, err := New(mat, ModeExtVP).Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		rb, err := New(bits, ModeExtVP).Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !reflect.DeepEqual(canon(rm), canon(rb)) {
			t.Errorf("%q: bit-vector mode differs: %v vs %v", src, canon(rb), canon(rm))
		}
	}
}

func TestBitVectorPlanUsesBits(t *testing.T) {
	ds := g1BitsDataset(t)
	e := New(ds, ModeExtVP)
	res, err := e.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Plan {
		if strings.Contains(p.Table, "[bits]") {
			found = true
		}
	}
	if !found {
		t.Errorf("no bit-vector table in plan: %+v", res.Plan)
	}
}

func TestBitVectorScannedRowsMatchSF(t *testing.T) {
	// The metered scan cost through a bit vector must equal the reduction
	// size, not the base VP size.
	mat := layout.Build(g1(), materializedOptions())
	bits := g1BitsDataset(t)
	rm, err := New(mat, ModeExtVP).Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(bits, ModeExtVP).Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Metrics.RowsScanned != rm.Metrics.RowsScanned {
		t.Errorf("bit-vector scanned %d rows, materialized %d",
			rb.Metrics.RowsScanned, rm.Metrics.RowsScanned)
	}
}

func TestUnifyCorrelationsImprovesSelectivity(t *testing.T) {
	// tp3 of Q1 has an SO (0.75) and an OS (0.25) correlation. Their
	// intersection has a single row (B,C), SF 0.25 — at worst equal to the
	// best single table, and the result must not change.
	ds := g1BitsDataset(t)
	plain := New(ds, ModeExtVP)
	unified := New(ds, ModeExtVP)
	unified.UnifyCorrelations = true

	rp, err := plain.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unified.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canon(rp), canon(ru)) {
		t.Fatalf("unification changed the result")
	}
	if ru.Metrics.RowsScanned > rp.Metrics.RowsScanned {
		t.Errorf("unified scanned %d rows > plain %d",
			ru.Metrics.RowsScanned, rp.Metrics.RowsScanned)
	}
	foundIntersect := false
	for _, p := range ru.Plan {
		if strings.Contains(p.Table, "∩") {
			foundIntersect = true
			if p.SF > 0.25+1e-9 {
				t.Errorf("intersection SF = %v, want <= 0.25", p.SF)
			}
		}
	}
	if !foundIntersect {
		t.Errorf("no intersection table in plan: %+v", ru.Plan)
	}
}

func TestUnifyCorrelationsEmptyIntersection(t *testing.T) {
	// Build a graph where two correlations are individually non-empty but
	// their intersection is empty: p-edges whose object has a q-edge, and
	// p-edges whose object is a target of r — but never both.
	iri := rdf.NewIRI
	triples := []rdf.Triple{
		{S: iri("urn:a"), P: iri("urn:p"), O: iri("urn:b")},
		{S: iri("urn:b"), P: iri("urn:q"), O: iri("urn:x")},
		{S: iri("urn:c"), P: iri("urn:p"), O: iri("urn:d")},
		{S: iri("urn:e"), P: iri("urn:r"), O: iri("urn:d")},
		{S: iri("urn:d"), P: iri("urn:s"), O: iri("urn:y")},
		{S: iri("urn:b2"), P: iri("urn:s"), O: iri("urn:y2")},
	}
	ds := layout.Build(triples, layout.DefaultOptions())
	e := New(ds, ModeExtVP)
	e.UnifyCorrelations = true

	// ?m p ?n requires ?n to have a q-edge (only b) AND be an r-target
	// (only d): intersection empty although each reduction alone is not.
	res, err := e.Query(`SELECT * WHERE {
		?m <urn:p> ?n . ?n <urn:q> ?o . ?w <urn:r> ?n
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}
	if !res.StatsOnly {
		t.Error("empty intersection should be detected before execution")
	}
	// Sanity: without unification the same query executes and still
	// returns empty.
	plain := New(ds, ModeExtVP)
	rp, err := plain.Query(`SELECT * WHERE {
		?m <urn:p> ?n . ?n <urn:q> ?o . ?w <urn:r> ?n
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 0 {
		t.Fatalf("plain rows = %d, want 0", rp.Len())
	}
}

func TestBitVectorSizesSmaller(t *testing.T) {
	mat := layout.Build(g1(), materializedOptions())
	bv := layout.Build(g1(), layout.DefaultOptions())

	sm, sb := mat.Sizes(), bv.Sizes()
	if sb.ExtBitBytes == 0 {
		t.Fatal("bit bytes not recorded")
	}
	if sm.ExtBitBytes != 0 {
		t.Error("materialized build recorded bit bytes")
	}
	// Same logical reductions in both.
	if sm.ExtTables != sb.ExtTables || sm.ExtTuples != sb.ExtTuples {
		t.Errorf("logical sizes differ: %+v vs %+v", sm, sb)
	}
}
