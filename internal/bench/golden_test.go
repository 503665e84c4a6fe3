package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.counters.json from this run")

// Golden counters pin the engine's work, not its speed: for a fixed data
// seed, instance seed and partition count, every metered counter, the join
// order, the join strategies, the keys pushed into each scan and the cost
// gate's estimate are exact, whatever the number of workers. A plan, scan
// or layout change shows up as a diff of these files, which
// `go test -run TestGoldenCounters -update` rewrites.
const (
	goldenScale      = 2
	goldenDataSeed   = 1
	goldenInstSeed   = 7
	goldenPartitions = 8
)

// goldenRecord is one query's counters in one mode.
type goldenRecord struct {
	Query     string                 `json:"query"`
	Mode      string                 `json:"mode"`
	Text      string                 `json:"text"`
	Rows      int                    `json:"rows"`
	StatsOnly bool                   `json:"stats_only,omitempty"`
	Metrics   engine.MetricsSnapshot `json:"metrics"`
	JoinOrder string                 `json:"join_order"`
	Joins     string                 `json:"joins"`
	Keys      string                 `json:"keys"`
	Cost      core.CostEstimate      `json:"cost"`
	GateCost  int                    `json:"gate_cost"`
}

// goldenSets are the workloads, each written to <name>.counters.json. A
// set's suffix is appended to every query text.
var goldenSets = []struct {
	name      string
	templates []watdiv.Template
	suffix    string
	modes     []core.Mode
}{
	{"basic", watdiv.BasicTemplates(), "", []core.Mode{core.ModeExtVP, core.ModeVP, core.ModePT, core.ModeTT}},
	{"st", watdiv.STTemplates(), "", []core.Mode{core.ModeExtVP, core.ModeVP}},
	{"il", watdiv.ILTemplates(), "", []core.Mode{core.ModeExtVP, core.ModeVP}},
	{"analytic_stream", analyticTemplates(), "", []core.Mode{core.ModeExtVP, core.ModeVP}},
	{"analytic_reduce", analyticTemplates(), " ORDER BY ?v0 LIMIT 10", []core.Mode{core.ModeExtVP, core.ModeVP}},
}

// analyticTemplates are the 12 large-result templates of the benchmark's
// analytic workloads (1e4-4e5 rows at scale 10).
func analyticTemplates() []watdiv.Template {
	names := []string{
		"C3", "ST-1-1", "ST-1-2", "ST-3-2", "ST-4-1", "ST-5-1", "ST-7-2",
		"IL-3-5", "IL-3-6", "IL-3-7", "IL-3-9", "IL-3-10",
	}
	all := slices.Concat(watdiv.BasicTemplates(), watdiv.STTemplates(), watdiv.ILTemplates())
	out := make([]watdiv.Template, len(names))
	for i, n := range names {
		j := slices.IndexFunc(all, func(t watdiv.Template) bool { return t.Name == n })
		if j < 0 {
			panic("golden: unknown WatDiv template " + n)
		}
		out[i] = all[j]
	}
	return out
}

func TestGoldenCounters(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: goldenScale, Seed: goldenDataSeed})
	opts := layout.DefaultOptions()
	opts.BuildPT = true
	ds := layout.Build(data.Triples, opts)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		// The cluster takes its worker count from GOMAXPROCS; the
		// partition count stays pinned.
		runtime.GOMAXPROCS(procs)
		engines := map[core.Mode]*core.Engine{}
		for _, m := range []core.Mode{core.ModeExtVP, core.ModeVP, core.ModePT, core.ModeTT} {
			e := core.New(ds, m)
			e.Cluster = engine.NewCluster(goldenPartitions)
			engines[m] = e
		}
		for _, set := range goldenSets {
			var recs []goldenRecord
			for _, tmpl := range set.templates {
				text := tmpl.Instantiate(data, rand.New(rand.NewSource(goldenInstSeed))) + set.suffix
				for _, m := range set.modes {
					recs = append(recs, goldenRun(t, engines[m], tmpl.Name, text))
				}
			}
			sort.Slice(recs, func(i, j int) bool {
				if recs[i].Query != recs[j].Query {
					return recs[i].Query < recs[j].Query
				}
				return recs[i].Mode < recs[j].Mode
			})
			goldenCompare(t, set.name+".counters.json", procs, recs)
		}
	}
	// The layout summary: tables, tuples, empty and cut ExtVP candidates.
	goldenCompare(t, "layout.json", 1, ds.Sizes())
}

// goldenCompare diffs v, as indented JSON, against testdata/golden/name,
// which -update rewrites from the GOMAXPROCS 1 run.
func goldenCompare(t *testing.T, name string, procs int, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update && procs == 1 {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s at GOMAXPROCS %d: counters differ from %s:\n%s",
			name, procs, path, firstLineDiff(want, got))
	}
}

// goldenRun plans text the way the cost gate does, executes that plan and
// records its counters.
func goldenRun(t *testing.T, e *core.Engine, name, text string) goldenRecord {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	plan := e.PlanQuery(q)
	cost := plan.Cost()
	s, err := e.ExecPlan(context.Background(), plan)
	if err != nil {
		t.Fatalf("%s %s: %v", name, e.Mode, err)
	}
	rows := 0
	for {
		b, err := s.NextBlock()
		if err != nil {
			t.Fatalf("%s %s: %v", name, e.Mode, err)
		}
		if b == nil {
			break
		}
		rows += b.Len()
	}
	res := s.Result()
	var order, joins, keys []string
	for _, i := range res.JoinOrder {
		order = append(order, strconv.Itoa(i))
	}
	for _, j := range res.Joins {
		joins = append(joins, j.Strategy)
	}
	for _, p := range res.Plan {
		keys = append(keys, strconv.Itoa(p.Keys))
	}
	return goldenRecord{
		Query: name, Mode: e.Mode.String(), Text: strings.Join(strings.Fields(text), " "),
		Rows: rows, StatsOnly: res.StatsOnly, Metrics: res.Metrics,
		JoinOrder: strings.Join(order, ","), Joins: strings.Join(joins, ","),
		Keys: strings.Join(keys, ","), Cost: cost, GateCost: cost.Cost(),
	}
}

// firstLineDiff names the first line where got departs from want.
func firstLineDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
