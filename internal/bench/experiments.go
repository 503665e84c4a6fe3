package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"s2rdf/internal/core"
	"s2rdf/internal/layout"
	"s2rdf/internal/watdiv"
)

// LoadRow is one scale point of the load experiment (paper Table 2).
type LoadRow struct {
	Scale      float64
	Triples    int
	VPTuples   int
	ExtTuples  int
	ExtTables  int
	ExtEmpty   int
	ExtEqualVP int
	VPLoad     time.Duration
	ExtVPLoad  time.Duration
	DiskBytes  int64
}

// RunLoad builds the dataset at each scale and reports layout sizes and
// build times (Table 2). The persisted ("HDFS") size is measured by
// writing the store to a temporary directory: the dictionary and TT (plus
// a small manifest), since a saved store derives VP and ExtVP again when
// it is opened. The ExtVP tuples are those the build keeps.
func RunLoad(cfg Config, scales []float64) ([]LoadRow, error) {
	cfg.defaults()
	var rows []LoadRow
	for _, scale := range scales {
		data := watdiv.Generate(watdiv.Config{Scale: scale, Seed: cfg.Seed})

		t0 := time.Now()
		layout.Build(data.Triples, layout.Options{BuildExtVP: false})
		vpLoad := time.Since(t0)

		t0 = time.Now()
		ds := layout.Build(data.Triples, layout.DefaultOptions())
		extLoad := time.Since(t0)

		sizes := ds.Sizes()
		row := LoadRow{
			Scale:      scale,
			Triples:    sizes.Triples,
			VPTuples:   sizes.Triples,
			ExtTuples:  sizes.ExtTuples,
			ExtTables:  sizes.ExtTables,
			ExtEmpty:   sizes.ExtEmpty,
			ExtEqualVP: sizes.ExtEqualVP,
			VPLoad:     vpLoad,
			ExtVPLoad:  extLoad,
		}
		if cfg.TmpDir != "" {
			dir := filepath.Join(cfg.TmpDir, fmt.Sprintf("load-%g", scale))
			if err := layout.Save(ds, dir); err != nil {
				return nil, err
			}
			n, err := layout.DiskBytes(dir)
			if err != nil {
				return nil, err
			}
			row.DiskBytes = n
			os.RemoveAll(dir)
		}
		rows = append(rows, row)
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E1: load times and store sizes (paper Table 2) ===")
	fmt.Fprintln(tw, "scale\ttriples\tExtVP tuples\tExtVP tables\tempty\t=VP\tVP load\tExtVP load\tdisk (dict+TT)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%g\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%dKB\n",
			r.Scale, r.Triples, r.ExtTuples, r.ExtTables, r.ExtEmpty, r.ExtEqualVP,
			fmtDur(r.VPLoad), fmtDur(r.ExtVPLoad), r.DiskBytes/1024)
	}
	tw.Flush()
	return rows, nil
}

// STRow compares ExtVP and VP on one Selectivity Testing query (Table 3).
type STRow struct {
	Query                string
	Rows                 int
	ExtVP, VP            time.Duration
	ExtScanned, VPScaned int64
	StatsOnly            bool
}

// RunST runs the Selectivity Testing workload in ExtVP and VP modes
// (Fig. 13 / Table 3).
func RunST(cfg Config) ([]STRow, error) {
	cfg.defaults()
	data := watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	ds := layout.Build(data.Triples, layout.DefaultOptions())
	ext := core.New(ds, core.ModeExtVP)
	vp := core.New(ds, core.ModeVP)

	var rows []STRow
	for _, tpl := range watdiv.STTemplates() {
		re, err := ext.Query(tpl.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tpl.Name, err)
		}
		rv, err := vp.Query(tpl.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tpl.Name, err)
		}
		rows = append(rows, STRow{
			Query:      tpl.Name,
			Rows:       re.Len(),
			ExtVP:      re.Duration,
			VP:         rv.Duration,
			ExtScanned: re.Metrics.RowsScanned,
			VPScaned:   rv.Metrics.RowsScanned,
			StatsOnly:  re.StatsOnly,
		})
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E2: Selectivity Testing, ExtVP vs VP (paper Fig. 13 / Table 3) ===")
	fmt.Fprintln(tw, "query\trows\tExtVP\tVP\tspeedup\tscanned ExtVP\tscanned VP\tstats-only")
	for _, r := range rows {
		speedup := "-"
		if r.ExtVP > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(r.VP)/float64(r.ExtVP))
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%d\t%d\t%v\n",
			r.Query, r.Rows, fmtDur(r.ExtVP), fmtDur(r.VP), speedup,
			r.ExtScanned, r.VPScaned, r.StatsOnly)
	}
	tw.Flush()
	return rows, nil
}

// RunBasic runs the Basic Testing use case across all engines (Fig. 14 /
// Table 4).
func RunBasic(cfg Config) ([]Cell, error) {
	cfg.defaults()
	wb, err := NewWorkbench(cfg)
	if err != nil {
		return nil, err
	}
	cells := wb.RunWorkload(watdiv.BasicTemplates())
	PrintMatrix(cfg.Out, "E3: WatDiv Basic Testing (paper Fig. 14 / Table 4)", cells)
	return cells, nil
}

// RunIL runs the Incremental Linear use case across all engines (Fig. 15 /
// Table 5).
func RunIL(cfg Config) ([]Cell, error) {
	cfg.defaults()
	wb, err := NewWorkbench(cfg)
	if err != nil {
		return nil, err
	}
	cells := wb.RunWorkload(watdiv.ILTemplates())
	PrintMatrix(cfg.Out, "E4: WatDiv Incremental Linear Testing (paper Fig. 15 / Table 5)", cells)
	return cells, nil
}

// ThresholdRow is one SF-threshold point (Table 6 / Fig. 16).
type ThresholdRow struct {
	Threshold   float64
	Tables      int
	TotalTuples int
	// MeanByShape maps query shape (L, S, F, C) to the mean Basic-Testing
	// runtime at this threshold.
	MeanByShape map[string]time.Duration
	Mean        time.Duration
}

// RunThreshold sweeps the SF threshold and reports store size and Basic
// Testing runtimes (Table 6 / Fig. 16). Threshold 0 disables ExtVP (= VP).
func RunThreshold(cfg Config, thresholds []float64) ([]ThresholdRow, error) {
	cfg.defaults()
	data := watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	templates := watdiv.BasicTemplates()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	// One fixed instantiation per template, shared by every threshold.
	queries := make([]struct{ name, shape, src string }, len(templates))
	for i, tpl := range templates {
		queries[i] = struct{ name, shape, src string }{tpl.Name, tpl.Shape, tpl.Instantiate(data, rng)}
	}

	var rows []ThresholdRow
	for _, th := range thresholds {
		opts := layout.Options{BuildExtVP: th > 0, Threshold: th}
		ds := layout.Build(data.Triples, opts)
		mode := core.ModeExtVP
		if th == 0 {
			mode = core.ModeVP
		}
		eng := core.New(ds, mode)

		row := ThresholdRow{Threshold: th, MeanByShape: map[string]time.Duration{}}
		sizes := ds.Sizes()
		row.Tables = sizes.VPTables + sizes.ExtTables
		row.TotalTuples = sizes.TotalTuples

		shapeSum := map[string]time.Duration{}
		shapeCount := map[string]int{}
		var total time.Duration
		for _, q := range queries {
			res, err := eng.Query(q.src)
			if err != nil {
				return nil, fmt.Errorf("threshold %g, %s: %w", th, q.name, err)
			}
			shapeSum[q.shape] += res.Duration
			shapeCount[q.shape]++
			total += res.Duration
		}
		for s, sum := range shapeSum {
			row.MeanByShape[s] = sum / time.Duration(shapeCount[s])
		}
		row.Mean = total / time.Duration(len(queries))
		rows = append(rows, row)
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E5: SF threshold sweep (paper Table 6 / Fig. 16) ===")
	fmt.Fprintln(tw, "SF TH\ttables\ttuples\tAM-L\tAM-S\tAM-F\tAM-C\tAM-total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Threshold, r.Tables, r.TotalTuples,
			fmtDur(r.MeanByShape["L"]), fmtDur(r.MeanByShape["S"]),
			fmtDur(r.MeanByShape["F"]), fmtDur(r.MeanByShape["C"]), fmtDur(r.Mean))
	}
	tw.Flush()
	return rows, nil
}

// JoinOrderRow compares Algorithm 4 vs Algorithm 3 on one query (Sec. 6.2).
type JoinOrderRow struct {
	Query            string
	Optimized, Naive time.Duration
	OptRows, NaiRows int64 // intermediate rows produced
}

// RunJoinOrder is the ablation for the join-order optimization.
func RunJoinOrder(cfg Config) ([]JoinOrderRow, error) {
	cfg.defaults()
	data := watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	ds := layout.Build(data.Triples, layout.DefaultOptions())
	opt := core.New(ds, core.ModeExtVP)
	naive := core.New(ds, core.ModeExtVP)
	naive.JoinOrderOpt = false

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var rows []JoinOrderRow
	for _, tpl := range watdiv.BasicTemplates() {
		src := tpl.Instantiate(data, rng)
		ro, err := opt.Query(src)
		if err != nil {
			return nil, err
		}
		rn, err := naive.Query(src)
		if err != nil {
			return nil, err
		}
		rows = append(rows, JoinOrderRow{
			Query:     tpl.Name,
			Optimized: ro.Duration,
			Naive:     rn.Duration,
			OptRows:   ro.Metrics.RowsOutput,
			NaiRows:   rn.Metrics.RowsOutput,
		})
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E6: join-order optimization ablation (paper Sec. 6.2 / Fig. 12) ===")
	fmt.Fprintln(tw, "query\tAlg.4 (opt)\tAlg.3 (naive)\topt interm. rows\tnaive interm. rows")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n",
			r.Query, fmtDur(r.Optimized), fmtDur(r.Naive), r.OptRows, r.NaiRows)
	}
	tw.Flush()
	return rows, nil
}

// OORow summarizes the OO-correlation ablation (paper Sec. 5.2).
type OORow struct {
	Kind      string
	Tables    int // materialized (0 < SF < 1)
	Tuples    int
	MeanSF    float64
	SelfEqual int // reductions equal to VP (SF = 1), the paper's argument
}

// RunOO builds the ExtVP schema including OO reductions and reports, per
// correlation kind, how many tables are useful — quantifying the paper's
// choice to omit OO.
func RunOO(cfg Config) ([]OORow, error) {
	cfg.defaults()
	data := watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	opts := layout.DefaultOptions()
	opts.BuildOO = true
	ds := layout.Build(data.Triples, opts)

	k := len(ds.Predicates)
	candidates := map[layout.Correlation]int{
		layout.SS: k * (k - 1), layout.OS: k * k, layout.SO: k * k, layout.OO: k * (k - 1),
	}
	agg := map[layout.Correlation]*OORow{}
	for _, kind := range []layout.Correlation{layout.SS, layout.OS, layout.SO, layout.OO} {
		agg[kind] = &OORow{Kind: kind.String()}
	}
	counted := map[layout.Correlation]int{}
	for key, info := range ds.Info {
		row := agg[key.Kind]
		counted[key.Kind]++
		if info.Materialized {
			row.Tables++
			row.Tuples += info.Rows
			row.MeanSF += info.SF
		}
	}
	var out []OORow
	for _, kind := range []layout.Correlation{layout.SS, layout.OS, layout.SO, layout.OO} {
		row := agg[kind]
		if row.Tables > 0 {
			row.MeanSF /= float64(row.Tables)
		}
		row.SelfEqual = candidates[kind] - counted[kind]
		out = append(out, *row)
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E7: OO-correlation ablation (paper Sec. 5.2 design choice) ===")
	fmt.Fprintln(tw, "kind\tuseful tables\ttuples\tmean SF\treductions equal to VP")
	for _, r := range out {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%d\n", r.Kind, r.Tables, r.Tuples, r.MeanSF, r.SelfEqual)
	}
	tw.Flush()
	return out, nil
}
