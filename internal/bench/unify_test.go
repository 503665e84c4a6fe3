package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s2rdf/internal/core"
	"s2rdf/internal/layout"
	"s2rdf/internal/watdiv"
)

// TestUnificationCutsBasicRowsScanned pins the counter result that keeps
// correlation unification (paper Sec. 8): on seeded WatDiv Basic instances
// over a bit-vector store, intersecting every applicable reduction of a
// pattern scans at most two thirds of the rows that picking the single
// best reduction scans, with equal answers. Counts only, no timing.
func TestUnificationCutsBasicRowsScanned(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 0.5, Seed: 1})
	opts := layout.DefaultOptions()
	opts.BitVectors = true
	ds := layout.Build(data.Triples, opts)
	bits := core.New(ds, core.ModeExtVP)
	unified := core.New(ds, core.ModeExtVP)
	unified.UnifyCorrelations = true

	rng := rand.New(rand.NewSource(7))
	var bitsRows, unifiedRows int64
	changed := 0
	for range 4 {
		for _, tpl := range watdiv.BasicTemplates() {
			q := tpl.Instantiate(data, rng)
			rb, err := bits.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", tpl.Name, err)
			}
			ru, err := unified.Query(q)
			if err != nil {
				t.Fatalf("%s unified: %v", tpl.Name, err)
			}
			if !reflect.DeepEqual(answers(ru), answers(rb)) {
				t.Fatalf("%s: unified answers differ\n%s", tpl.Name, q)
			}
			bitsRows += rb.Metrics.RowsScanned
			unifiedRows += ru.Metrics.RowsScanned
			if ru.Metrics.RowsScanned != rb.Metrics.RowsScanned {
				changed++
			}
		}
	}
	t.Logf("rows scanned: bits-only %d, unified %d (%.1f%% fewer; %d instances changed)",
		bitsRows, unifiedRows, 100*(1-float64(unifiedRows)/float64(bitsRows)), changed)
	if 3*unifiedRows > 2*bitsRows {
		t.Errorf("unified scanned %d rows, want at most 2/3 of bits-only %d", unifiedRows, bitsRows)
	}
}

// answers renders a result's rows in a canonical (sorted) order.
func answers(r *core.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row)
	}
	slices.Sort(out)
	return out
}
