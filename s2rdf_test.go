package s2rdf

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"s2rdf/internal/layout"
	"s2rdf/internal/mapreduce"
	"s2rdf/internal/rdf"
	"s2rdf/internal/triplestore"
	"s2rdf/internal/watdiv"
)

func exampleTriples() []Triple {
	iri := rdf.NewIRI
	follows, likes := iri("urn:follows"), iri("urn:likes")
	return []Triple{
		{S: iri("urn:A"), P: follows, O: iri("urn:B")},
		{S: iri("urn:B"), P: follows, O: iri("urn:C")},
		{S: iri("urn:B"), P: follows, O: iri("urn:D")},
		{S: iri("urn:C"), P: follows, O: iri("urn:D")},
		{S: iri("urn:A"), P: likes, O: iri("urn:I1")},
		{S: iri("urn:A"), P: likes, O: iri("urn:I2")},
		{S: iri("urn:C"), P: likes, O: iri("urn:I2")},
	}
}

func TestStoreQuickstart(t *testing.T) {
	st := Load(exampleTriples(), Options{})
	res, err := st.Query(`SELECT * WHERE {
		?x <urn:likes> ?w . ?x <urn:follows> ?y .
		?y <urn:follows> ?z . ?z <urn:likes> ?w
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if st.NumTriples() != 7 {
		t.Errorf("NumTriples = %d", st.NumTriples())
	}
	if st.Sizes().ExtTables == 0 {
		t.Error("no ExtVP tables built")
	}
}

func TestLoadReaderAndFile(t *testing.T) {
	nt := `<urn:A> <urn:p> <urn:B> .
<urn:B> <urn:p> <urn:C> .`
	st, err := LoadReader(strings.NewReader(nt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`SELECT ?x ?z WHERE { ?x <urn:p> ?y . ?y <urn:p> ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}

	path := filepath.Join(t.TempDir(), "data.nt")
	if err := osWriteFile(path, nt); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumTriples() != 2 {
		t.Errorf("NumTriples = %d", st2.NumTriples())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Error("expected error for missing file")
	}
}

// watdivNTriples writes the WatDiv scale-0.05 graph as N-Triples.
func watdivNTriples(t *testing.T) *bytes.Buffer {
	var nt bytes.Buffer
	w := rdf.NewWriter(&nt)
	for _, tr := range watdiv.Generate(watdiv.Config{Scale: 0.05, Seed: 1}).Triples {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &nt
}

// TestLoadReaderColumnsExact: LoadReader grows TT's columns a batch at a
// time, but the store keeps them with no spare capacity.
func TestLoadReaderColumnsExact(t *testing.T) {
	st, err := LoadReader(watdivNTriples(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range st.Dataset().TT.Data {
		if len(col) != st.NumTriples() || cap(col) != len(col) {
			t.Errorf("TT column %d: len %d, cap %d, want both %d", i, len(col), cap(col), st.NumTriples())
		}
	}
}

// TestLoadReaderSavesLikeLoad pins the streaming loader to the slice one:
// over the same WatDiv file both save byte-identical store files, and a
// malformed line mid-file still fails with its line number.
func TestLoadReaderSavesLikeLoad(t *testing.T) {
	nt := watdivNTriples(t)
	triples, err := rdf.ReadAll(bytes.NewReader(nt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadReader(bytes.NewReader(nt.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, st := range []*Store{Load(triples, Options{}), streamed} {
		if err := st.Save(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"dict.txt", "TT.tbl", "manifest.json"} {
		var files [2][]byte
		for i, dir := range dirs {
			if files[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: LoadReader saved %d bytes that differ from Load's %d", name, len(files[1]), len(files[0]))
		}
	}

	lines := strings.SplitAfter(nt.String(), "\n")
	bad := len(lines) / 2
	lines[bad-1] = "<urn:a> <urn:b> oops .\n"
	_, err = LoadReader(strings.NewReader(strings.Join(lines, "")), Options{})
	if want := fmt.Sprintf("line %d:", bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("malformed line %d: err = %v, want it to name %q", bad, err, want)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := Load(exampleTriples(), Options{})
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT * WHERE {
		?x <urn:likes> ?w . ?x <urn:follows> ?y .
		?y <urn:follows> ?z . ?z <urn:likes> ?w
	}`
	r1, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonRows(r1), canonRows(r2)) {
		t.Errorf("results differ after reload: %v vs %v", canonRows(r1), canonRows(r2))
	}
	if st2.Sizes().ExtTables != st.Sizes().ExtTables {
		t.Errorf("ExtVP table count differs after reload: %d vs %d",
			st2.Sizes().ExtTables, st.Sizes().ExtTables)
	}
	// The plan (table selection) must survive persistence too.
	if len(r2.Plan) != len(r1.Plan) {
		t.Fatalf("plan lengths differ")
	}
	for i := range r1.Plan {
		if r1.Plan[i].Table != r2.Plan[i].Table {
			t.Errorf("plan %d: %q vs %q", i, r1.Plan[i].Table, r2.Plan[i].Table)
		}
	}
}

func TestDisableExtVP(t *testing.T) {
	st := Load(exampleTriples(), Options{DisableExtVP: true})
	res, err := st.Query(`SELECT ?y WHERE { <urn:B> <urn:follows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
	if st.Sizes().ExtTables != 0 {
		t.Error("ExtVP tables built despite DisableExtVP")
	}
	for _, p := range res.Plan {
		if strings.HasPrefix(p.Table, "ExtVP") {
			t.Errorf("plan uses ExtVP table %q in VP mode", p.Table)
		}
	}
}

func TestThresholdOption(t *testing.T) {
	full := Load(exampleTriples(), Options{})
	cut := Load(exampleTriples(), Options{Threshold: 0.3})
	if cut.Sizes().ExtTuples >= full.Sizes().ExtTuples {
		t.Errorf("threshold had no effect: %d vs %d",
			cut.Sizes().ExtTuples, full.Sizes().ExtTuples)
	}
}

// TestThresholdOutsideUnitIntervalSaves: a threshold of NaN, +Inf or
// above 1 keeps what threshold 1 keeps, and the store saves and reopens.
// NaN used to drop every ExtVP table and then fail Save's JSON encoding.
func TestThresholdOutsideUnitIntervalSaves(t *testing.T) {
	want := Load(exampleTriples(), Options{}).Sizes()
	for _, th := range []float64{math.NaN(), math.Inf(1), 2} {
		st := Load(exampleTriples(), Options{Threshold: th})
		if got := st.Sizes(); got != want {
			t.Errorf("threshold %v: sizes %+v, want %+v", th, got, want)
		}
		dir := t.TempDir()
		if err := st.Save(dir); err != nil {
			t.Fatalf("threshold %v: save: %v", th, err)
		}
		reopened, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("threshold %v: open: %v", th, err)
		}
		if got := reopened.Sizes(); got != want {
			t.Errorf("threshold %v: reopened sizes %+v, want %+v", th, got, want)
		}
	}
}

// canonRows renders results canonically for cross-engine comparison.
func canonRows(r *Result) []string {
	out := make([]string, 0, r.Len())
	for _, b := range r.Bindings() {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s;", k, b[k])
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// TestAllSevenEnginesAgreeOnWatDiv is the whole-system integration test: the
// four S2RDF modes, both MapReduce baselines and the centralized store must
// return identical solution multisets for every Basic Testing and ST query
// on a generated WatDiv dataset.
func TestAllSevenEnginesAgreeOnWatDiv(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	data := watdiv.Generate(watdiv.Config{Scale: 0.03, Seed: 11})
	st := Load(data.Triples, Options{BuildPropertyTable: true})
	fw := mapreduce.New(t.TempDir())
	shard, err := mapreduce.NewSHARD(fw, data.Triples)
	if err != nil {
		t.Fatal(err)
	}
	pig, err := mapreduce.NewPigSPARQL(fw, data.Triples)
	if err != nil {
		t.Fatal(err)
	}
	virt := triplestore.NewEngine(triplestore.New(data.Triples, nil), triplestore.Virtuoso)
	h2 := triplestore.NewEngine(triplestore.New(data.Triples, nil), triplestore.H2RDFPlus)

	rng := rand.New(rand.NewSource(5))
	var templates []watdiv.Template
	templates = append(templates, watdiv.BasicTemplates()...)
	templates = append(templates, watdiv.STTemplates()...)

	for _, tpl := range templates {
		src := tpl.Instantiate(data, rng)
		want, err := st.QueryMode(ModeExtVP, src)
		if err != nil {
			t.Fatalf("%s: ExtVP: %v", tpl.Name, err)
		}
		wantCanon := canonRows(want)

		for _, mode := range []Mode{ModeVP, ModeTT, ModePT} {
			got, err := st.QueryMode(mode, src)
			if err != nil {
				t.Fatalf("%s: %v: %v", tpl.Name, mode, err)
			}
			if !reflect.DeepEqual(canonRows(got), wantCanon) {
				t.Errorf("%s: %v returned %d rows, ExtVP %d", tpl.Name, mode, got.Len(), want.Len())
			}
		}
		// External engines: compare row counts via canonical sets.
		rs, err := shard.Query(src)
		if err != nil {
			t.Fatalf("%s: SHARD: %v", tpl.Name, err)
		}
		if rs.Len() != want.Len() {
			t.Errorf("%s: SHARD %d rows, ExtVP %d", tpl.Name, rs.Len(), want.Len())
		}
		rp, err := pig.Query(src)
		if err != nil {
			t.Fatalf("%s: Pig: %v", tpl.Name, err)
		}
		if rp.Len() != want.Len() {
			t.Errorf("%s: PigSPARQL %d rows, ExtVP %d", tpl.Name, rp.Len(), want.Len())
		}
		rv, err := virt.Query(src)
		if err != nil {
			t.Fatalf("%s: Virtuoso: %v", tpl.Name, err)
		}
		if rv.Len() != want.Len() {
			t.Errorf("%s: Virtuoso %d rows, ExtVP %d", tpl.Name, rv.Len(), want.Len())
		}
		rh, err := h2.Query(src)
		if err != nil {
			t.Fatalf("%s: H2RDF+: %v", tpl.Name, err)
		}
		if rh.Len() != want.Len() {
			t.Errorf("%s: H2RDF+ %d rows, ExtVP %d", tpl.Name, rh.Len(), want.Len())
		}
	}
}

// TestILQueriesAcrossModes checks the Incremental Linear workload across
// the four in-process modes (the MapReduce engines are exercised on the
// cheaper workloads above).
func TestILQueriesAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	data := watdiv.Generate(watdiv.Config{Scale: 0.03, Seed: 13})
	st := Load(data.Triples, Options{BuildPropertyTable: true})
	rng := rand.New(rand.NewSource(6))
	for _, tpl := range watdiv.ILTemplates() {
		if tpl.Shape == "IL-3" && strings.HasSuffix(tpl.Name, "10") {
			continue // keep runtime bounded; IL-3-10 covered in benches
		}
		src := tpl.Instantiate(data, rng)
		want, err := st.QueryMode(ModeExtVP, src)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		for _, mode := range []Mode{ModeVP, ModeTT, ModePT} {
			got, err := st.QueryMode(mode, src)
			if err != nil {
				t.Fatalf("%s: %v: %v", tpl.Name, mode, err)
			}
			if got.Len() != want.Len() {
				t.Errorf("%s: %v %d rows, ExtVP %d", tpl.Name, mode, got.Len(), want.Len())
			}
		}
	}
}

// TestSTQueriesEmptyByStats checks the paper's ST-8 behaviour end to end on
// WatDiv data: user-language correlations are empty and proven so by
// statistics.
func TestSTQueriesEmptyByStats(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 0.02, Seed: 3})
	st := Load(data.Triples, Options{})
	for _, name := range []string{"ST-8-1", "ST-8-2"} {
		var tpl watdiv.Template
		for _, c := range watdiv.STTemplates() {
			if c.Name == name {
				tpl = c
			}
		}
		res, err := st.Query(tpl.Text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Len() != 0 {
			t.Errorf("%s: rows = %d, want 0", name, res.Len())
		}
		if !res.StatsOnly {
			t.Errorf("%s: expected statistics-only empty answer", name)
		}
	}
}

// TestLazySaveMatchesEager: querying a store before saving it changes
// nothing it writes. A queried and an unqueried store over the same data
// save byte-identical directories, and both reopen to the same Sizes.
// (The name dates from the deferred ExtVP build, whose saves had to write
// reductions no query had built; every reduction is now built at load.)
func TestLazySaveMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var data []Triple
	for range 300 {
		node := func() Term { return rdf.NewIRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
		data = append(data, Triple{S: node(), P: rdf.NewIRI(fmt.Sprintf("urn:p%d", rng.Intn(5))), O: node()})
	}
	fresh := Load(data, Options{})
	queried := Load(data, Options{})
	if _, err := queried.Query(`SELECT * WHERE { ?x <urn:p0> ?y . ?y <urn:p1> ?z }`); err != nil {
		t.Fatal(err)
	}

	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, st := range []*Store{fresh, queried} {
		if err := st.Save(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*"))
	if err != nil {
		t.Fatal(err)
	}
	if queriedFiles, _ := filepath.Glob(filepath.Join(dirs[1], "*")); len(queriedFiles) != len(files) {
		t.Fatalf("queried store wrote %d files, fresh store %d", len(queriedFiles), len(files))
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the queried and the fresh save", filepath.Base(f))
		}
	}

	var sizes [2]layout.SizeSummary
	for i, dir := range dirs {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = st.Sizes()
	}
	if sizes[0] != sizes[1] || sizes[0] != fresh.Sizes() {
		t.Errorf("reopened Sizes = %+v (fresh) and %+v (queried), want %+v", sizes[0], sizes[1], fresh.Sizes())
	}
}
