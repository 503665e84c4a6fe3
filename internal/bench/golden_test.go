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

// goldenSets are the workloads, each written to <name>.counters.json.
var goldenSets = []struct {
	name      string
	templates []watdiv.Template
	modes     []core.Mode
}{
	{"basic", watdiv.BasicTemplates(), []core.Mode{core.ModeExtVP, core.ModeVP, core.ModePT}},
	{"st", watdiv.STTemplates(), []core.Mode{core.ModeExtVP, core.ModeVP}},
	{"il", watdiv.ILTemplates(), []core.Mode{core.ModeExtVP, core.ModeVP}},
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
		for _, m := range []core.Mode{core.ModeExtVP, core.ModeVP, core.ModePT} {
			e := core.New(ds, m)
			e.Cluster = engine.NewCluster(goldenPartitions)
			engines[m] = e
		}
		for _, set := range goldenSets {
			var recs []goldenRecord
			for _, tmpl := range set.templates {
				text := tmpl.Instantiate(data, rand.New(rand.NewSource(goldenInstSeed)))
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
			got, err := json.MarshalIndent(recs, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", set.name+".counters.json")
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
					set.name, procs, path, firstLineDiff(want, got))
			}
		}
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
