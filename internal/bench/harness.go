// Package bench implements the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Sec. 7): load sizes and times
// (Table 2), Selectivity Testing (Fig. 13 / Table 3), Basic Testing
// (Fig. 14 / Table 4), Incremental Linear Testing (Fig. 15 / Table 5), the
// SF-threshold sweep (Table 6 / Fig. 16), and two ablations (join-order
// optimization, Sec. 6.2; OO-correlation omission, Sec. 5.2).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"s2rdf/internal/core"
	"s2rdf/internal/layout"
	"s2rdf/internal/mapreduce"
	"s2rdf/internal/triplestore"
	"s2rdf/internal/watdiv"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale is the WatDiv scale factor (1 ≈ 10^5 triples).
	Scale float64
	// Seed drives data generation and template instantiation.
	Seed int64
	// Runs is the number of instantiations averaged per template.
	Runs int
	// Timeout aborts a single query; timed-out entries print as "F", as
	// in the paper's result tables.
	Timeout time.Duration
	// TmpDir hosts the MapReduce engines' files.
	TmpDir string
	// Engines restricts which systems run (nil = all). Valid names:
	// S2RDF-ExtVP, S2RDF-VP, S2RDF-TT, Sempala, PigSPARQL, SHARD,
	// H2RDF+, Virtuoso.
	Engines []string
	// Out receives the report (defaults to io.Discard if nil).
	Out io.Writer
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Runs <= 0 {
		c.Runs = 2
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// RunStats is one query execution's outcome as reported by an Engine.
type RunStats struct {
	Rows int
	// Wall is measured wall time; Reported is the engine's reported time
	// (simulated for the MapReduce systems, equal to Wall otherwise).
	Wall, Reported time.Duration
	// Scanned and Pruned are the engine's metered scan input and the rows
	// its scans skipped via sort order and zone maps (0 for systems that do
	// not meter them).
	Scanned, Pruned int64
	// TTFR is the time to first row — the streaming pipeline's latency
	// metric, the wait before the first solution could be delivered
	// (0 for systems that do not meter it).
	TTFR time.Duration
	// PeakMem is the peak accounted intermediate state in bytes
	// (0 for systems that do not meter it).
	PeakMem int64
}

// Engine is a uniform wrapper over all compared systems.
type Engine struct {
	Name string
	// Run executes a query.
	Run func(src string) (RunStats, error)
}

// timedOut is the sentinel duration for queries killed by the timeout.
const timedOut = time.Duration(-1)

// runWithTimeout executes fn with the configured timeout. On timeout the
// query goroutine is abandoned (like the paper's "F" entries for queries
// that exceeded the evaluation timeout).
func runWithTimeout(timeout time.Duration, fn func() (RunStats, error)) (RunStats, error) {
	type out struct {
		st  RunStats
		err error
	}
	ch := make(chan out, 1)
	go func() {
		st, err := fn()
		ch <- out{st, err}
	}()
	select {
	case o := <-ch:
		return o.st, o.err
	case <-time.After(timeout):
		return RunStats{Wall: timedOut, Reported: timedOut}, nil
	}
}

// Workbench holds the generated data loaded into every system under test.
type Workbench struct {
	Cfg     Config
	Data    *watdiv.Data
	Store   *layout.Dataset
	Engines []Engine
	// LoadTimes records per-layout build durations (Table 2).
	LoadTimes map[string]time.Duration
}

// NewWorkbench generates data and loads all requested engines.
func NewWorkbench(cfg Config) (*Workbench, error) {
	cfg.defaults()
	wb := &Workbench{Cfg: cfg, LoadTimes: make(map[string]time.Duration)}
	wb.Data = watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})

	want := func(name string) bool {
		if cfg.Engines == nil {
			return true
		}
		for _, e := range cfg.Engines {
			if e == name {
				return true
			}
		}
		return false
	}

	// S2RDF layouts (time VP and ExtVP construction separately).
	t0 := time.Now()
	vpOnly := layout.Build(wb.Data.Triples, layout.Options{BuildExtVP: false})
	wb.LoadTimes["VP"] = time.Since(t0)
	_ = vpOnly
	t0 = time.Now()
	opts := layout.DefaultOptions()
	opts.BuildPT = true
	ds := layout.Build(wb.Data.Triples, opts)
	wb.LoadTimes["ExtVP"] = time.Since(t0)
	wb.Store = ds

	coreEngine := func(name string, mode core.Mode) Engine {
		e := core.New(ds, mode)
		return Engine{Name: name, Run: func(src string) (RunStats, error) {
			res, err := e.Query(src)
			if err != nil {
				return RunStats{}, err
			}
			return RunStats{
				Rows: res.Len(), Wall: res.Duration, Reported: res.Duration,
				Scanned: res.Metrics.RowsScanned, Pruned: res.Metrics.RowsPruned,
				TTFR: res.TimeToFirstRow, PeakMem: res.PeakMemBytes,
			}, nil
		}}
	}
	if want("S2RDF-ExtVP") {
		wb.Engines = append(wb.Engines, coreEngine("S2RDF-ExtVP", core.ModeExtVP))
	}
	if want("S2RDF-VP") {
		wb.Engines = append(wb.Engines, coreEngine("S2RDF-VP", core.ModeVP))
	}
	if want("S2RDF-TT") {
		wb.Engines = append(wb.Engines, coreEngine("S2RDF-TT", core.ModeTT))
	}
	if want("Sempala") {
		wb.Engines = append(wb.Engines, coreEngine("Sempala", core.ModePT))
	}

	if cfg.TmpDir != "" && (want("SHARD") || want("PigSPARQL")) {
		fw := mapreduce.New(cfg.TmpDir)
		if want("SHARD") {
			t0 = time.Now()
			shard, err := mapreduce.NewSHARD(fw, wb.Data.Triples)
			if err != nil {
				return nil, err
			}
			wb.LoadTimes["SHARD"] = time.Since(t0)
			wb.Engines = append(wb.Engines, Engine{Name: "SHARD",
				Run: func(src string) (RunStats, error) {
					res, err := shard.Query(src)
					if err != nil {
						return RunStats{}, err
					}
					return RunStats{Rows: res.Len(), Wall: res.Wall, Reported: res.Simulated}, nil
				}})
		}
		if want("PigSPARQL") {
			t0 = time.Now()
			pig, err := mapreduce.NewPigSPARQL(fw, wb.Data.Triples)
			if err != nil {
				return nil, err
			}
			wb.LoadTimes["PigSPARQL"] = time.Since(t0)
			wb.Engines = append(wb.Engines, Engine{Name: "PigSPARQL",
				Run: func(src string) (RunStats, error) {
					res, err := pig.Query(src)
					if err != nil {
						return RunStats{}, err
					}
					return RunStats{Rows: res.Len(), Wall: res.Wall, Reported: res.Simulated}, nil
				}})
		}
	}

	if want("H2RDF+") || want("Virtuoso") {
		t0 = time.Now()
		ts := triplestore.New(wb.Data.Triples, nil)
		wb.LoadTimes["Triplestore"] = time.Since(t0)
		if want("H2RDF+") {
			h2 := triplestore.NewEngine(ts, triplestore.H2RDFPlus)
			wb.Engines = append(wb.Engines, Engine{Name: "H2RDF+",
				Run: func(src string) (RunStats, error) {
					res, err := h2.Query(src)
					if err != nil {
						return RunStats{}, err
					}
					return RunStats{Rows: res.Len(), Wall: res.Wall, Reported: res.Simulated}, nil
				}})
		}
		if want("Virtuoso") {
			v := triplestore.NewEngine(ts, triplestore.Virtuoso)
			wb.Engines = append(wb.Engines, Engine{Name: "Virtuoso",
				Run: func(src string) (RunStats, error) {
					res, err := v.Query(src)
					if err != nil {
						return RunStats{}, err
					}
					return RunStats{Rows: res.Len(), Wall: res.Wall, Reported: res.Simulated}, nil
				}})
		}
	}
	return wb, nil
}

// Cell is one measured (query, engine) entry.
type Cell struct {
	Query    string
	Shape    string
	Engine   string
	Rows     int
	Reported time.Duration // timedOut when killed
	Failed   bool
	// AllocBytes and Allocs are the mean heap bytes and allocation count
	// per query execution (runtime.MemStats deltas), the -json analogue of
	// go test's B/op and allocs/op, reported alongside wall time.
	AllocBytes uint64 `json:"AllocBytesPerOp"`
	Allocs     uint64 `json:"AllocsPerOp"`
	// RowsScanned and RowsPruned are the engine's mean metered scan input
	// and the mean rows its scans skipped via sort order and zone maps per
	// query (0 for systems that do not meter them), so scan volume — and
	// pruning effectiveness — are reported per cell.
	RowsScanned int64 `json:"RowsScanned"`
	RowsPruned  int64 `json:"RowsPruned"`
	// TTFR is the mean time to first row, the latency a streaming client
	// waits before the first solution arrives; PeakMem the mean peak
	// accounted intermediate state. Both 0 for systems that do not meter
	// them.
	TTFR    time.Duration `json:"TTFRNanos"`
	PeakMem int64         `json:"PeakMemBytes"`
}

// allocDelta runs fn and returns the process-wide heap allocation deltas
// (TotalAlloc bytes, Mallocs count) around it. The counters are monotonic,
// so no GC pacing is needed; concurrent allocation (e.g. an abandoned
// timed-out query) can inflate a reading, which is acceptable for a
// benchmark report.
func allocDelta(fn func()) (bytes, allocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// RunWorkload measures every engine on every instantiated template and
// returns the cells (arithmetic mean over cfg.Runs instantiations, as the
// paper reports).
func (wb *Workbench) RunWorkload(templates []watdiv.Template) []Cell {
	rng := rand.New(rand.NewSource(wb.Cfg.Seed + 1))
	var cells []Cell
	for _, tpl := range templates {
		// Instantiate once per run; reuse the same instances across
		// engines so all engines answer identical queries.
		runs := wb.Cfg.Runs
		if !tpl.HasPlaceholders() {
			runs = 1
		}
		queries := make([]string, runs)
		for i := range queries {
			queries[i] = tpl.Instantiate(wb.Data, rng)
		}
		for _, eng := range wb.Engines {
			var total, ttfr time.Duration
			var bytes, allocs uint64
			var scanned, pruned, peak int64
			rows, failed := 0, false
			for _, src := range queries {
				var st RunStats
				var err error
				db, da := allocDelta(func() {
					st, err = runWithTimeout(wb.Cfg.Timeout,
						func() (RunStats, error) { return eng.Run(src) })
				})
				if err != nil || st.Reported == timedOut {
					failed = true
					break
				}
				total += st.Reported
				rows += st.Rows
				bytes += db
				allocs += da
				scanned += st.Scanned
				pruned += st.Pruned
				ttfr += st.TTFR
				peak += st.PeakMem
			}
			cell := Cell{Query: tpl.Name, Shape: tpl.Shape, Engine: eng.Name, Failed: failed}
			if !failed {
				n := uint64(len(queries))
				cell.Reported = total / time.Duration(len(queries))
				cell.Rows = rows / len(queries)
				cell.AllocBytes = bytes / n
				cell.Allocs = allocs / n
				cell.RowsScanned = scanned / int64(n)
				cell.RowsPruned = pruned / int64(n)
				cell.TTFR = ttfr / time.Duration(len(queries))
				cell.PeakMem = peak / int64(n)
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// PrintMatrix renders cells as a query × engine table plus per-shape
// arithmetic means, the layout of the paper's Tables 4 and 5.
func PrintMatrix(w io.Writer, title string, cells []Cell) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	var queries, engines []string
	shapes := map[string]string{}
	seenQ, seenE := map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		if !seenQ[c.Query] {
			seenQ[c.Query] = true
			queries = append(queries, c.Query)
			shapes[c.Query] = c.Shape
		}
		if !seenE[c.Engine] {
			seenE[c.Engine] = true
			engines = append(engines, c.Engine)
		}
	}
	at := map[[2]string]Cell{}
	for _, c := range cells {
		at[[2]string{c.Query, c.Engine}] = c
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "query\trows")
	for _, e := range engines {
		fmt.Fprintf(tw, "\t%s", e)
	}
	fmt.Fprintln(tw)
	for _, q := range queries {
		first := at[[2]string{q, engines[0]}]
		fmt.Fprintf(tw, "%s\t%d", q, first.Rows)
		for _, e := range engines {
			c := at[[2]string{q, e}]
			if c.Failed {
				fmt.Fprint(tw, "\tF")
			} else {
				fmt.Fprintf(tw, "\t%s", fmtDur(c.Reported))
			}
		}
		fmt.Fprintln(tw)
	}
	// Per-shape arithmetic means.
	var shapeOrder []string
	seenS := map[string]bool{}
	for _, q := range queries {
		if s := shapes[q]; !seenS[s] {
			seenS[s] = true
			shapeOrder = append(shapeOrder, s)
		}
	}
	for _, s := range shapeOrder {
		fmt.Fprintf(tw, "AM-%s\t", s)
		for _, e := range engines {
			var sum time.Duration
			n, failed := 0, false
			for _, q := range queries {
				if shapes[q] != s {
					continue
				}
				c := at[[2]string{q, e}]
				if c.Failed {
					failed = true
					break
				}
				sum += c.Reported
				n++
			}
			if failed || n == 0 {
				fmt.Fprint(tw, "\tN/A")
			} else {
				fmt.Fprintf(tw, "\t%s", fmtDur(sum/time.Duration(n)))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// ShapeMeans aggregates the cells into engine -> shape -> mean reported
// time; used by tests to assert the paper's orderings.
func ShapeMeans(cells []Cell) map[string]map[string]time.Duration {
	sum := map[string]map[string]time.Duration{}
	count := map[string]map[string]int{}
	for _, c := range cells {
		if c.Failed {
			continue
		}
		if sum[c.Engine] == nil {
			sum[c.Engine] = map[string]time.Duration{}
			count[c.Engine] = map[string]int{}
		}
		sum[c.Engine][c.Shape] += c.Reported
		count[c.Engine][c.Shape]++
	}
	out := map[string]map[string]time.Duration{}
	for e, shapes := range sum {
		out[e] = map[string]time.Duration{}
		for s, total := range shapes {
			out[e][s] = total / time.Duration(count[e][s])
		}
	}
	return out
}

// sortedKeys returns map keys sorted.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
