package core

import (
	"reflect"
	"strings"
	"testing"

	"s2rdf/internal/layout"
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
