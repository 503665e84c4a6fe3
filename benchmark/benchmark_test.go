package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, supported %v; want 90, true (10 samples beyond)", v, ok)
	}
	if v, ok := percentile(xs, 0.95); v != 95 || ok {
		t.Errorf("p95 of 1..100 = %v, supported %v; want 95, false (5 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:21], 0.50); !ok {
		t.Error("p50 of 21 samples has 10 beyond it and must be supported")
	}
	if _, ok := percentile(xs[:19], 0.50); ok {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(nil, 0.50); ok {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestZipfAndPoissonRepeatPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		z := newZipf(zipfPoolSize, zipfS)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.draw(rng)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("Zipf draws differ for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("Zipf draws equal for different seeds")
	}
	first := 0
	for _, r := range a {
		if r < 0 || r >= zipfPoolSize {
			t.Fatalf("rank %d out of range", r)
		}
		if r == 0 {
			first++
		}
	}
	// P(rank 0) = 1/H(512) ≈ 0.147.
	if first < 200 || first > 400 {
		t.Errorf("rank 0 drawn %d times of 2000, want about 294", first)
	}

	sched := func(seed int64) []float64 {
		return poissonSchedule(rand.New(rand.NewSource(seed)), 500, 4)
	}
	p, q := sched(3), sched(3)
	if !reflect.DeepEqual(p, q) {
		t.Error("Poisson schedule differs for one seed")
	}
	if reflect.DeepEqual(p, sched(4)) {
		t.Error("Poisson schedule equal for different seeds")
	}
	if len(p) < 1800 || len(p) > 2200 {
		t.Errorf("%d arrivals in 4 s at 500/s, want about 2000", len(p))
	}
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Fatal("schedule is not ascending")
		}
	}
}

// emptyDoc is a complete SPARQL-JSON document with no solutions.
const emptyDoc = `{"head":{"vars":["x"]},"results":{"bindings":[` + bodyTail

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const service = 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		fmt.Fprint(w, emptyDoc)
	}))
	defer srv.Close()
	tr, clients := newClients(srv.URL, 1)
	defer tr.CloseIdleConnections()
	qs := &querySet{pool: []query{{template: "t", text: "q", wantRows: 0}}, seq: []int32{0}}
	// Two requests due at once, one connection: the second cannot be sent
	// before the first reply, and that wait is part of its latency.
	win := openLoop(clients[:1], qs, []float64{0, 0}, 0, time.Second, false)
	if win.attempted != 2 || win.failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v)", win.attempted, win.failed, win.failReasons)
	}
	slow, lag := win.latMs[1], win.lagMs[1] // sorted ascending
	if slow < 2*ms(service)-5 {
		t.Errorf("second request's latency %.1f ms: measured from its send, not from when it was due (want >= %.0f)", slow, 2*ms(service))
	}
	if lag < ms(service)-5 {
		t.Errorf("generator lag %.1f ms does not show the %.0f ms the send ran late", lag, ms(service))
	}
}

func TestReplyChecks(t *testing.T) {
	three := `{"head":{"vars":["x"]},"results":{"bindings":[` +
		"\n{\"x\":{\"type\":\"literal\",\"value\":\"a\\nb\"}},\n{},\n{}" + bodyTail
	bodies := map[string]string{
		"/ok":      three,
		"/empty":   emptyDoc,
		"/cut":     three[:len(three)-3],
		"/trailer": strings.TrimSuffix(three, bodyTail) + "\n]},\"error\":\"query aborted mid-stream\"}\n",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/busy" {
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, bodies[r.URL.Path])
	}))
	defer srv.Close()
	tr, clients := newClients(srv.URL, 1)
	defer tr.CloseIdleConnections()
	c := clients[0]
	for _, tc := range []struct {
		path     string
		wantRows int64
		rows     int64
		fail     string
	}{
		{"/ok", 3, 3, ""},
		{"/ok", -1, 3, ""},
		{"/empty", 0, 0, ""},
		{"/ok", 4, 3, "verified count"},
		{"/cut", -1, 0, "truncated"},
		{"/trailer", -1, 0, "truncated"},
		{"/busy", -1, 0, "status 429"},
	} {
		c.url = srv.URL + tc.path
		r := c.do(&query{template: "t", text: "q", wantRows: tc.wantRows}, time.Now(), false)
		if (tc.fail == "") != (r.fail == "") || !strings.Contains(r.fail, tc.fail) {
			t.Errorf("%s want %d rows: fail = %q, want it to contain %q", tc.path, tc.wantRows, r.fail, tc.fail)
		}
		if r.fail == "" && r.rows != tc.rows {
			t.Errorf("%s: counted %d rows, want %d", tc.path, r.rows, tc.rows)
		}
	}
}

func TestSelfTimeIsParentMinusCoveredInterval(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{Trace: 1, ID: 5, Parent: 3, Name: "b.child", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Covered: [10,30] + [30,50] + [90,100] = 50.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestAnalyseAttributesResidualToServeOverhead(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: spanQuery, Start: 0, End: 1000},
		{Trace: 1, ID: 2, Parent: 1, Name: spanRequest, Start: 0, End: 500},
		{Trace: 1, ID: 3, Parent: 1, Name: spanReplay, Start: 600, End: 1000},
		{Trace: 1, ID: 4, Parent: 3, Name: spanExec, Start: 600, End: 900},
		{Trace: 1, ID: 5, Parent: 3, Name: spanDecode, Start: 900, End: 980},
	}
	rep := analyse(spans)
	if rep.dominant != spanExec {
		t.Errorf("dominant = %s, want %s", rep.dominant, spanExec)
	}
	if got := rep.selfShare[residualName]; math.Abs(got-0.2) > 1e-9 {
		t.Errorf("serve overhead share = %v, want 0.2 ((500-400)/500)", got)
	}
	if got := rep.coverage; math.Abs(got-0.95) > 1e-9 {
		t.Errorf("child coverage = %v, want 0.95 (380 of 400)", got)
	}
}

func TestReduceWrapperParsesForEveryAnalyticTemplate(t *testing.T) {
	for _, tpl := range templatesByName(analyticNames) {
		if tpl.HasPlaceholders() {
			t.Errorf("%s has placeholders; the analytic pool is meant to be fixed", tpl.Name)
		}
		q, err := sparql.Parse(strings.TrimSpace(tpl.Text) + reduceSuffix)
		if err != nil {
			t.Errorf("%s: %v", tpl.Name, err)
			continue
		}
		if len(q.OrderBy) != 1 || q.OrderBy[0].Var != "v0" || q.Limit != 10 {
			t.Errorf("%s: parsed to ORDER BY %v LIMIT %d", tpl.Name, q.OrderBy, q.Limit)
		}
		if v0Column(q.SelectVars()) < 0 {
			t.Errorf("%s does not project ?v0", tpl.Name)
		}
	}
}

func TestZipfPoolShapeDoesNotDependOnSeed(t *testing.T) {
	d := watdiv.Generate(watdiv.Config{Scale: verifyScale, Seed: 1})
	a, b := zipfSet(d, 1), zipfSet(d, 2)
	mid := 0
	midSet := make(map[string]bool)
	for _, n := range midNames {
		midSet[n] = true
	}
	for r := range a.pool {
		if a.pool[r].template != b.pool[r].template {
			t.Fatalf("rank %d holds %s under seed 1 and %s under seed 2", r, a.pool[r].template, b.pool[r].template)
		}
		if midSet[a.pool[r].template] {
			mid++
		}
	}
	if len(a.pool) != zipfPoolSize || mid != zipfPoolSize*15/100 {
		t.Errorf("%d entries, %d of them mid-size; want %d and %d", len(a.pool), mid, zipfPoolSize, zipfPoolSize*15/100)
	}
	if reflect.DeepEqual(a.seq[:1000], b.seq[:1000]) {
		t.Error("arrival order equal for different seeds")
	}
	if !reflect.DeepEqual(a.seq[:1000], zipfSet(d, 1).seq[:1000]) {
		t.Error("arrival order differs for one seed")
	}
}

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json, which the driver
// reads, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
