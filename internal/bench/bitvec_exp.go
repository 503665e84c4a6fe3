package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"s2rdf/internal/core"
	"s2rdf/internal/layout"
	"s2rdf/internal/watdiv"
)

// BitVecRow compares the two ExtVP representations on one workload
// aggregate: materialized reductions (the paper's evaluation) and
// bit-vector reductions (paper Sec. 8; the default).
type BitVecRow struct {
	Variant     string
	ExtBytes    int64 // storage for the reductions
	Mean        time.Duration
	RowsScanned int64
}

// RunBitVec runs the ST workload under both ExtVP representations and
// reports storage and execution cost.
func RunBitVec(cfg Config) ([]BitVecRow, error) {
	cfg.defaults()
	data := watdiv.Generate(watdiv.Config{Scale: cfg.Scale, Seed: cfg.Seed})

	matOpts := layout.DefaultOptions()
	matOpts.Materialize = true
	matDS := layout.Build(data.Triples, matOpts)
	bvDS := layout.Build(data.Triples, layout.DefaultOptions())

	matSizes := matDS.Sizes()
	bvSizes := bvDS.Sizes()

	type variant struct {
		name   string
		engine *core.Engine
		bytes  int64
	}
	variants := []variant{
		// Two uint32 columns per materialized tuple.
		{"materialized", core.New(matDS, core.ModeExtVP), int64(matSizes.ExtTuples) * 8},
		{"bit vectors", core.New(bvDS, core.ModeExtVP), int64(bvSizes.ExtBitBytes)},
	}

	templates := watdiv.STTemplates()
	var rows []BitVecRow
	for _, v := range variants {
		var total time.Duration
		var scanned int64
		for _, tpl := range templates {
			res, err := v.engine.Query(tpl.Text)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", v.name, tpl.Name, err)
			}
			total += res.Duration
			scanned += res.Metrics.RowsScanned
		}
		rows = append(rows, BitVecRow{
			Variant:     v.name,
			ExtBytes:    v.bytes,
			Mean:        total / time.Duration(len(templates)),
			RowsScanned: scanned,
		})
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(cfg.Out, "\n=== E8: ExtVP representations (paper Sec. 8 future work) ===")
	fmt.Fprintln(tw, "variant\tExtVP bytes\tmean ST runtime\trows scanned (workload)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\n", r.Variant, r.ExtBytes, fmtDur(r.Mean), r.RowsScanned)
	}
	tw.Flush()
	return rows, nil
}
