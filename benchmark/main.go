// Command benchmark is the repository's serving benchmark: the numbers
// every later performance or simplicity claim is measured with. It serves a
// WatDiv store through the real s2rdf.NewMux on a loopback listener inside
// this process, drives it with a real net/http client over two keep-alive
// connections, checks the answers, and prints named metrics. README.md in
// this directory says what each workload and metric is for.
//
//	cd benchmark && go run . -workload selective_mix          # one timed run
//	cd benchmark && go run . -workload selective_mix -trace 1 # its traced run
//	cd benchmark && go run .                                  # all five
//	cd benchmark && go run . -selfcheck                       # noise check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// definitions; a unit test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a client of the endpoint, or whoever pays for its
// machine, sees. Bound is the share of the parent commit's median by which
// a later change may worsen the metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"ttfb_p50_ms", "ms", "lower", 0.25},
	{"store_heap_mb", "MiB", "lower", 0.05},
}

// perLayer metrics come from the traced run. They have no bound: they say
// where an end-to-end change came from, and several are diagnostics that
// proved too noisy to gate (see README.md).
var perLayer = []metricDef{
	{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.normalize_us", Unit: "us", Better: "lower"},
	{Name: "core.cost_gate_us", Unit: "us", Better: "lower"},
	{Name: "core.exec_us", Unit: "us", Better: "lower"},
	{Name: "core.decode_us", Unit: "us", Better: "lower"},
	{Name: "dict.render_ns_per_term", Unit: "ns", Better: "lower"},
	{Name: "s2rdf.serve_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.selection_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "engine.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "engine.rows_pruned", Unit: "count", Better: "higher"},
	{Name: "engine.rows_shuffled", Unit: "count", Better: "lower"},
	{Name: "engine.join_comparisons", Unit: "count", Better: "lower"},
	{Name: "engine.rows_sorted", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_spilled", Unit: "B", Better: "lower"},
	{Name: "engine.rows_examined_per_result", Unit: "ratio", Better: "lower"},
	{Name: "layout.input_reduction", Unit: "ratio", Better: "higher"},
	{Name: "sched.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "sched.queue_wait_p95_us", Unit: "us", Better: "lower"},
	{Name: "sched.expensive_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.result_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cache.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "layout.generate_s", Unit: "s", Better: "lower"},
	{Name: "layout.encode_s", Unit: "s", Better: "lower"},
	{Name: "layout.build_extvp_s", Unit: "s", Better: "lower"},
	{Name: "layout.save_s", Unit: "s", Better: "lower"},
	{Name: "layout.load_s", Unit: "s", Better: "lower"},
	{Name: "layout.build_triples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "layout.extvp_tuple_ratio", Unit: "ratio", Better: "lower"},
	{Name: "layout.disk_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.child_coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// runRecord says under what conditions a set of numbers was taken.
type runRecord struct {
	Workload    string  `json:"workload"`
	Loop        string  `json:"loop"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"window_s"`
	Traced      bool    `json:"traced"`
	Scale       float64 `json:"scale"`
	Connections int     `json:"connections"`
	OpenRate    float64 `json:"open_loop_rate_per_s,omitempty"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"git_commit"`
	LoadAvg1    float64 `json:"loadavg_1m"`
}

func newRunRecord(w workload, seed int64, seconds int, traced bool) runRecord {
	rec := runRecord{
		Workload:    w.name,
		Loop:        w.describe(),
		Seed:        seed,
		Seconds:     seconds,
		Traced:      traced,
		Scale:       dataScale,
		Connections: connections,
		OpenRate:    w.rate,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      "unknown",
		LoadAvg1:    -1,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rec.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			rec.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return rec
}

func (r runRecord) print(w io.Writer) {
	fmt.Fprintf(w, "run: workload=%s (%s) seed=%d window=%ds traced=%v scale=%g connections=%d\n",
		r.Workload, r.Loop, r.Seed, r.Seconds, r.Traced, r.Scale, r.Connections)
	fmt.Fprintf(w, "     nproc=%d GOMAXPROCS=%d %s commit=%s loadavg1=%.2f\n",
		r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit, r.LoadAvg1)
	if r.LoadAvg1 > 0.5 {
		fmt.Fprintf(w, "     WARNING: 1-minute load average %.2f > 0.5 — the box is busy, expect noise\n", r.LoadAvg1)
	}
}

// outcome is what one run of one workload reports.
type outcome struct {
	record    runRecord
	attempted int
	failed    int
	metrics   map[string]float64
}

// resultLine is the contract's last line of output.
func (o outcome) resultLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, make(map[string]mv)}
	for _, d := range defs {
		line.Metrics[d.Name] = mv{o.metrics[d.Name], d.Unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five, one after the other)")
	seed := flag.Int64("seed", 1, "seed for query instantiation, request order and arrival times")
	seconds := flag.Int("seconds", 10, "length of the timed window, 1-60")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: timed run reporting end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and fail if a gated metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	if *selfcheck {
		os.Exit(runSelfcheck(todo, *seed, *seconds))
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, w := range todo {
		out, err := runWorkload(w, *seed, *seconds, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(out.resultLine(defs))
	}
}

// runSelfcheck runs each workload twice on the same seed and compares.
func runSelfcheck(todo []workload, seed int64, seconds int) int {
	exit := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\trun 1\trun 2\tspread\tbound\t")
	for _, w := range todo {
		var runs [2]outcome
		for i := range runs {
			out, err := runWorkload(w, seed, seconds, false, io.Discard)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if out.failed > 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d requests failed\n", w.name, out.failed, out.attempted)
				exit = 1
			}
			runs[i] = out
		}
		for _, d := range endToEnd {
			a, b := runs[0].metrics[d.Name], runs[1].metrics[d.Name]
			spread := relDiff(a, b)
			verdict := ""
			if spread > d.Bound {
				verdict = "  EXCEEDS BOUND"
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\n", w.name, d.Name, a, b, 100*spread, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return exit
}
