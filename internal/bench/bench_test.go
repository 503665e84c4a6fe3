package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Scale:   0.02,
		Seed:    9,
		Runs:    1,
		Timeout: 60 * time.Second,
		TmpDir:  t.TempDir(),
	}
}

func TestRunLoad(t *testing.T) {
	var out bytes.Buffer
	cfg := testConfig(t)
	cfg.Out = &out
	rows, err := RunLoad(cfg, []float64{0.06, 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Triples <= rows[0].Triples {
		t.Error("triples did not grow with scale")
	}
	// ExtVP must be a superset overhead over VP (paper: ~11n unthresholded).
	if rows[0].ExtTuples <= rows[0].Triples {
		t.Errorf("ExtVP tuples %d not larger than |G| %d", rows[0].ExtTuples, rows[0].Triples)
	}
	if rows[0].DiskBytes == 0 {
		t.Error("disk size not measured")
	}
	if !strings.Contains(out.String(), "E1") {
		t.Error("report missing")
	}
}

func TestRunST(t *testing.T) {
	var out bytes.Buffer
	cfg := testConfig(t)
	cfg.Out = &out
	rows, err := RunST(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("ST rows = %d, want 20", len(rows))
	}
	byName := map[string]STRow{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	// ST-8 queries must be answered from statistics with empty results.
	for _, name := range []string{"ST-8-1", "ST-8-2"} {
		r := byName[name]
		if r.Rows != 0 || !r.StatsOnly {
			t.Errorf("%s: rows=%d statsOnly=%v", name, r.Rows, r.StatsOnly)
		}
	}
	// ExtVP must scan fewer rows than VP on the low-selectivity queries.
	for _, name := range []string{"ST-1-3", "ST-3-3", "ST-6-1"} {
		r := byName[name]
		if r.ExtScanned >= r.VPScaned {
			t.Errorf("%s: ExtVP scanned %d >= VP %d", name, r.ExtScanned, r.VPScaned)
		}
	}
}

func TestRunBasicSubset(t *testing.T) {
	var out bytes.Buffer
	cfg := testConfig(t)
	cfg.Out = &out
	cfg.Engines = []string{"S2RDF-ExtVP", "S2RDF-VP", "Sempala", "Virtuoso"}
	cells, err := RunBasic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20*4 {
		t.Fatalf("cells = %d, want 80", len(cells))
	}
	// All engines must agree on result cardinality per query.
	byQuery := map[string]map[string]Cell{}
	for _, c := range cells {
		if byQuery[c.Query] == nil {
			byQuery[c.Query] = map[string]Cell{}
		}
		byQuery[c.Query][c.Engine] = c
	}
	for q, engines := range byQuery {
		want := -1
		for e, c := range engines {
			if c.Failed {
				continue
			}
			if want < 0 {
				want = c.Rows
			} else if c.Rows != want {
				t.Errorf("%s: %s returned %d rows, others %d", q, e, c.Rows, want)
			}
		}
	}
	if !strings.Contains(out.String(), "AM-L") {
		t.Error("per-shape means missing from report")
	}
}

func TestRunILSubset(t *testing.T) {
	cfg := testConfig(t)
	cfg.Engines = []string{"S2RDF-ExtVP", "S2RDF-VP"}
	cells, err := RunIL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18*2 {
		t.Fatalf("cells = %d, want 36", len(cells))
	}
}

func TestRunThreshold(t *testing.T) {
	cfg := testConfig(t)
	rows, err := RunThreshold(cfg, []float64{0, 0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Store size must grow monotonically with the threshold.
	if !(rows[0].TotalTuples <= rows[1].TotalTuples && rows[1].TotalTuples <= rows[2].TotalTuples) {
		t.Errorf("tuples not monotone: %d, %d, %d",
			rows[0].TotalTuples, rows[1].TotalTuples, rows[2].TotalTuples)
	}
	if rows[0].Tables >= rows[2].Tables {
		t.Errorf("tables not monotone: %d vs %d", rows[0].Tables, rows[2].Tables)
	}
}

func TestRunJoinOrder(t *testing.T) {
	cfg := testConfig(t)
	rows, err := RunJoinOrder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
	var optTotal, naiTotal int64
	for _, r := range rows {
		optTotal += r.OptRows
		naiTotal += r.NaiRows
	}
	if optTotal > naiTotal {
		t.Errorf("optimizer produced more intermediate rows overall: %d vs %d", optTotal, naiTotal)
	}
}

func TestRunOO(t *testing.T) {
	cfg := testConfig(t)
	rows, err := RunOO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	kinds := map[string]OORow{}
	for _, r := range rows {
		kinds[r.Kind] = r
	}
	// The paper's argument: OS/SO reductions are plentiful and useful.
	if kinds["OS"].Tables == 0 || kinds["SO"].Tables == 0 {
		t.Error("OS/SO produced no useful tables")
	}
}

func TestWorkbenchTimeout(t *testing.T) {
	st, err := runWithTimeout(10*time.Millisecond,
		func() (RunStats, error) {
			time.Sleep(time.Second)
			return RunStats{Rows: 1}, nil
		})
	if err != nil || st.Wall != timedOut || st.Rows != 0 {
		t.Errorf("timeout not detected: %d %v %v", st.Rows, st.Wall, err)
	}
}

func TestShapeMeans(t *testing.T) {
	cells := []Cell{
		{Query: "L1", Shape: "L", Engine: "A", Reported: 10 * time.Millisecond},
		{Query: "L2", Shape: "L", Engine: "A", Reported: 30 * time.Millisecond},
		{Query: "S1", Shape: "S", Engine: "A", Reported: 5 * time.Millisecond},
		{Query: "L1", Shape: "L", Engine: "B", Failed: true},
	}
	m := ShapeMeans(cells)
	if m["A"]["L"] != 20*time.Millisecond {
		t.Errorf("mean = %v", m["A"]["L"])
	}
	if _, ok := m["B"]["L"]; ok {
		t.Error("failed cells must not contribute")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		2 * time.Second:         "2.00s",
		1500 * time.Microsecond: "1.5ms",
		42 * time.Microsecond:   "42µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestRunBitVec(t *testing.T) {
	cfg := testConfig(t)
	rows, err := RunBitVec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	mat, bv, uni := rows[0], rows[1], rows[2]
	// The bit-vector representation must be substantially smaller.
	if bv.ExtBytes >= mat.ExtBytes {
		t.Errorf("bit vectors not smaller: %d vs %d bytes", bv.ExtBytes, mat.ExtBytes)
	}
	// Unification must never scan more than single-table selection.
	if uni.RowsScanned > bv.RowsScanned {
		t.Errorf("unification scanned more: %d vs %d", uni.RowsScanned, bv.RowsScanned)
	}
	// All variants agree on the scan volume ordering with materialized.
	if bv.RowsScanned != mat.RowsScanned {
		t.Errorf("bit-vector scan volume %d != materialized %d", bv.RowsScanned, mat.RowsScanned)
	}
}

func TestRunScaling(t *testing.T) {
	cfg := testConfig(t)
	rows, err := RunScaling(cfg, []float64{0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Triples <= rows[0].Triples {
		t.Error("triples did not grow")
	}
	for _, r := range rows {
		for _, mode := range []string{"ExtVP", "VP", "TT", "PT"} {
			if r.MeanBasic[mode] <= 0 {
				t.Errorf("scale %g: missing mean for %s", r.Scale, mode)
			}
		}
	}
}
