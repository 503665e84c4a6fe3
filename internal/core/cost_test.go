package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"s2rdf/internal/engine"
	"s2rdf/internal/layout"
	"s2rdf/internal/sched"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// TestCostGateAgreesWithExecution holds the cost gate to the plan that
// runs: for each query, the plan's ScanRows must be the sum of the
// executed patterns' estimates (Result.Plan[i].Est), and its PeakRows the
// largest intermediate estimate along the executed join order, recomputed
// from the first pattern's estimate and each join's LeftRows, RightRows and
// strategy (Result.Joins). Queries: one seeded instance of every WatDiv
// Basic template and of the analytic ST and IL templates at scale 2, and
// the six cross joins of TestCrossJoinEstimateCapped, at 2 and 8
// partitions.
func TestCostGateAgreesWithExecution(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 2, Seed: 1})
	ds := layout.Build(data.Triples, layout.DefaultOptions())
	analytic := []string{"ST-1-1", "ST-1-2", "ST-3-2", "ST-4-1", "ST-5-1", "ST-7-2", "IL-3-5", "IL-3-6", "IL-3-7", "IL-3-9", "IL-3-10"}
	templates := watdiv.BasicTemplates()
	for _, tm := range append(watdiv.STTemplates(), watdiv.ILTemplates()...) {
		if slices.Contains(analytic, tm.Name) {
			templates = append(templates, tm)
		}
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]string, len(templates))
	for i, tm := range templates {
		queries[i] = strings.TrimSpace(tm.Instantiate(data, rng))
	}
	crossDS, crossQuery := crossJoinCase()

	for _, parts := range []int{2, 8} {
		e := New(ds, ModeExtVP)
		e.Cluster = engine.NewCluster(parts)
		for i, src := range queries {
			checkGate(t, e, templates[i].Name, src)
		}
		cross := New(crossDS, ModeVP)
		cross.Cluster = engine.NewCluster(parts)
		checkGate(t, cross, "cross joins", crossQuery)
	}
}

// mustPlan parses src and plans it on e.
func mustPlan(t *testing.T, e *Engine, src string) *QueryPlan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return e.PlanQuery(q)
}

// execPlan executes p to completion and returns its Result.
func execPlan(t *testing.T, e *Engine, name string, p *QueryPlan) *Result {
	t.Helper()
	s, err := e.ExecPlan(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for {
		batch, err := s.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if batch == nil {
			return s.Result()
		}
	}
}

// checkGate plans the one-BGP query src on e, executes that plan, and
// compares the plan's cost with the figures recomputed from the execution.
func checkGate(t *testing.T, e *Engine, name, src string) {
	t.Helper()
	p := mustPlan(t, e, src)
	c := p.Cost()
	res := execPlan(t, e, name, p)
	scan := 0
	for _, p := range res.Plan {
		scan = addCapped(scan, p.Est)
	}
	peak := 0
	if len(res.JoinOrder) > 0 {
		est := res.Plan[res.JoinOrder[0]].Est
		peak = est
		for i, j := range res.Joins {
			if j.LeftRows != est {
				t.Errorf("%s: join %d LeftRows = %d, the previous step estimated %d", name, i, j.LeftRows, est)
			}
			est = joinEstimate(j.LeftRows, j.RightRows, j.Strategy != strategyCross)
			peak = max(peak, est)
		}
	}
	if c.ScanRows != scan || c.PeakRows != peak {
		t.Errorf("%s at %d partitions: gate ScanRows %d, PeakRows %d; execution %d, %d",
			name, e.Cluster.Partitions(), c.ScanRows, c.PeakRows, scan, peak)
	}
}

// TestCostGatePricesPTScans: in ModePT the gate prices the plan that runs
// over the property table, each star at the cells its scan is metered at.
// A two-pattern star over WatDiv's functional caption and text predicates
// scans every cell of the unified table; priced as if it ran over VP tables
// it read 381 rows and went to the cheap lane.
func TestCostGatePricesPTScans(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 2, Seed: 1})
	opts := layout.DefaultOptions()
	opts.BuildPT = true
	e := New(layout.Build(data.Triples, opts), ModePT)
	const src = `SELECT * WHERE { ?v0 <http://schema.org/caption> ?v1 . ?v0 <http://schema.org/text> ?v2 }`
	p := mustPlan(t, e, src)
	c := p.Cost()
	res := execPlan(t, e, "PT star", p)
	if c.ScanRows != 233103 || res.Metrics.RowsScanned != 233103 {
		t.Errorf("ScanRows = %d, executed RowsScanned = %d, want both 233103", c.ScanRows, res.Metrics.RowsScanned)
	}
	if class := sched.Classify(c.Cost(), sched.DefaultCheapThreshold); class != sched.Expensive {
		t.Errorf("cost %d classifies %v, want expensive", c.Cost(), class)
	}
}
