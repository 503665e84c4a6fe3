package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/ref"
	"s2rdf/internal/watdiv"
)

// analyticNames are the 12 large-result templates of the benchmark's
// analytic workloads.
var analyticNames = []string{
	"C3", "ST-1-1", "ST-1-2", "ST-3-2", "ST-4-1", "ST-5-1", "ST-7-2",
	"IL-3-5", "IL-3-6", "IL-3-7", "IL-3-9", "IL-3-10",
}

// TestAnalyticMatchesReference runs the analytic templates, streamed in full
// and as ORDER BY ?v0 LIMIT 10, over ExtVP as bit vectors, ExtVP as row
// copies and VP, at 1, 3 and 8 partitions, without a memory budget and
// under a 1-byte one (every join build spills, so the builds gather lazy
// key columns), and checks every answer against the naive evaluator's.
// Join outputs and bit-vector scans pass row ids between operators, so this
// pins that the columns gathered where they leave are the right ones. A
// top-k answer must list the reference's first ten ?v0 values in order,
// each row a solution of the full query (ties on ?v0 may pick other rows).
func TestAnalyticMatchesReference(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 0.2, Seed: 1})
	bits := layout.Build(data.Triples, layout.DefaultOptions())
	rows := layout.Build(data.Triples, materializedOptions())
	layouts := []struct {
		name string
		ds   *layout.Dataset
		mode Mode
	}{
		{"ExtVP bits", bits, ModeExtVP},
		{"ExtVP rows", rows, ModeExtVP},
		{"VP", rows, ModeVP},
	}
	all := slices.Concat(watdiv.BasicTemplates(), watdiv.STTemplates(), watdiv.ILTemplates())
	rng := rand.New(rand.NewSource(7))
	for _, name := range analyticNames {
		tm := all[slices.IndexFunc(all, func(tm watdiv.Template) bool { return tm.Name == name })]
		src := tm.Instantiate(data, rng)
		// The first answer is held to the reference's canonical form, every
		// other to the first one's rows.
		var want, wantTop, first []string
		for _, l := range layouts {
			for _, parts := range []int{1, 3, 8} {
				for _, budget := range []int64{0, 1} {
					e := New(l.ds, l.mode)
					e.Cluster = engine.NewCluster(parts)
					e.MemBudget, e.SpillDir = budget, t.TempDir()
					desc := fmt.Sprintf("%s, %s, %d partitions, budget %d", name, l.name, parts, budget)
					res := mustQuery(t, e, src)
					if spilled := res.Metrics.BytesSpilled > 0; spilled != (budget > 0) {
						t.Fatalf("%s: spilled %d bytes", desc, res.Metrics.BytesSpilled)
					}
					if want == nil {
						sols := refSolutions(t, data.Triples, src, res.JoinOrder)
						if len(sols) < 20 {
							t.Fatalf("%s: the reference has only %d solutions", name, len(sols))
						}
						want = ref.CanonAll(sols)
						wantTop = firstV0(sols, 10)
					}
					if first == nil {
						if got := canon(res); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %d solutions, the reference %d", desc, len(got), len(want))
						}
						first = rowKeys(res)
					} else if got := rowKeys(res); !reflect.DeepEqual(got, first) {
						t.Fatalf("%s: %d solutions, the reference %d", desc, len(got), len(want))
					}
					top := mustQuery(t, e, src+" ORDER BY ?v0 LIMIT 10")
					if got := v0s(top); !reflect.DeepEqual(got, wantTop) {
						t.Fatalf("%s, top-k: ?v0 %v, the reference %v", desc, got, wantTop)
					}
					for _, row := range canon(top) {
						if _, ok := slices.BinarySearch(want, row); !ok {
							t.Fatalf("%s, top-k: %s is no solution", desc, row)
						}
					}
				}
			}
		}
	}
}

// firstV0 returns the n first ?v0 values of sols in ORDER BY ?v0 order (the
// reference's: by term text, which is the engine's for IRIs).
func firstV0(sols []ref.Binding, n int) []string {
	var out []string
	for _, b := range sols {
		out = append(out, b["v0"].String())
	}
	slices.Sort(out)
	return out[:min(n, len(out))]
}

// v0s returns the ?v0 column of a result, in order.
func v0s(r *Result) []string {
	var out []string
	for _, b := range r.Bindings() {
		out = append(out, b["v0"].String())
	}
	return out
}
