// Command benchrun regenerates the paper's evaluation tables and figures
// (Sec. 7) on synthetic WatDiv data:
//
//	-exp load       Table 2  (load times and store sizes)
//	-exp st         Fig. 13 / Table 3 (Selectivity Testing, ExtVP vs VP)
//	-exp basic      Fig. 14 / Table 4 (Basic Testing across all systems)
//	-exp il         Fig. 15 / Table 5 (Incremental Linear Testing)
//	-exp threshold  Table 6 / Fig. 16 (SF threshold sweep)
//	-exp joinorder  Sec. 6.2 ablation (Algorithm 4 vs Algorithm 3)
//	-exp oo         Sec. 5.2 ablation (OO-correlation omission)
//	-exp bitvec     Sec. 8 future work (bit-vector vs materialized ExtVP)
//	-exp scaling    Table 4 scale axis (Basic means vs dataset size)
//	-exp all        everything
//
// An unknown -exp name exits non-zero with the list of experiments before
// any work starts.
//
// With -json PATH the raw measurements of every experiment that ran are
// additionally written as one JSON document. Workload cells include
// AllocBytesPerOp/AllocsPerOp (mean heap bytes and allocations per query,
// the -json analogue of go test's B/op and allocs/op) plus
// RowsScanned/RowsPruned (mean metered scan input and rows skipped by scan
// pruning), so allocation and scan-volume differences show up alongside
// wall time. Serving throughput and latency are measured by the benchmark/
// harness, not here.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"s2rdf/internal/bench"
)

// experiments lists the -exp names in run order ("all" runs each of them).
var experiments = []string{"load", "st", "basic", "il", "threshold", "joinorder", "oo", "bitvec", "scaling"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrun: ")
	names := strings.Join(experiments, ", ")
	exp := flag.String("exp", "all", "experiment: "+names+", all")
	scale := flag.Float64("scale", 0.2, "WatDiv scale factor (1 ≈ 10^5 triples)")
	seed := flag.Int64("seed", 42, "generator seed")
	runs := flag.Int("runs", 3, "instantiations per query template")
	timeout := flag.Duration("timeout", 120*time.Second, "per-query timeout (timed-out entries print F)")
	engines := flag.String("engines", "", "comma-separated engine subset (default all)")
	jsonOut := flag.String("json", "", "write raw results of the executed experiments to this JSON file")
	flag.Parse()
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		log.Fatalf("unknown -exp %q; want one of: %s, all", *exp, names)
	}

	tmp, err := os.MkdirTemp("", "s2rdf-bench-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	cfg := bench.Config{
		Scale:   *scale,
		Seed:    *seed,
		Runs:    *runs,
		Timeout: *timeout,
		TmpDir:  tmp,
		Out:     os.Stdout,
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}

	// results collects each experiment's raw rows for -json.
	results := map[string]any{
		"config": map[string]any{
			"scale": *scale, "seed": *seed, "runs": *runs,
			"timeout": timeout.String(), "engines": cfg.Engines,
		},
	}
	run := func(name string, fn func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		rows, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		results[name] = rows
	}

	run("load", func() (any, error) {
		return bench.RunLoad(cfg, []float64{*scale / 4, *scale / 2, *scale})
	})
	run("st", func() (any, error) { return bench.RunST(cfg) })
	run("basic", func() (any, error) { return bench.RunBasic(cfg) })
	run("il", func() (any, error) { return bench.RunIL(cfg) })
	run("threshold", func() (any, error) {
		return bench.RunThreshold(cfg, []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
	})
	run("joinorder", func() (any, error) { return bench.RunJoinOrder(cfg) })
	run("oo", func() (any, error) { return bench.RunOO(cfg) })
	run("bitvec", func() (any, error) { return bench.RunBitVec(cfg) })
	run("scaling", func() (any, error) {
		return bench.RunScaling(cfg, []float64{*scale / 4, *scale / 2, *scale, *scale * 2})
	})

	if *jsonOut != "" {
		doc, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			log.Fatalf("marshal results: %v", err)
		}
		doc = append(doc, '\n')
		if err := os.WriteFile(*jsonOut, doc, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		log.Printf("wrote %s", *jsonOut)
	}
}
