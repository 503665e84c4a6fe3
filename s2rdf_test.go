package s2rdf

import (
	"bytes"
	"fmt"
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

func TestLazyPayAsYouGo(t *testing.T) {
	data := exampleTriples()
	eager := Load(data, Options{})
	lazy := Load(data, Options{Lazy: true})
	built := lazy.Engine(ModeExtVP).Lazy

	// Lazy store starts with no reductions built.
	if built.Computed != 0 {
		t.Fatalf("lazy store pre-built %d tables", built.Computed)
	}
	q := `SELECT * WHERE {
		?x <urn:likes> ?w . ?x <urn:follows> ?y .
		?y <urn:follows> ?z . ?z <urn:likes> ?w
	}`
	re, err := eager.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The statistics are complete at load, so the cold plan and the warm
	// plan both make the eager store's table choices.
	for pass := range 2 {
		rl, err := lazy.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(canonRows(re), canonRows(rl)) {
			t.Fatalf("pass %d: lazy results differ: %v vs %v", pass, canonRows(rl), canonRows(re))
		}
		for i := range re.Plan {
			if re.Plan[i].Table != rl.Plan[i].Table || re.Plan[i].Rows != rl.Plan[i].Rows {
				t.Errorf("pass %d plan %d: lazy %q (%d rows) vs eager %q (%d rows)", pass, i,
					rl.Plan[i].Table, rl.Plan[i].Rows, re.Plan[i].Table, re.Plan[i].Rows)
			}
		}
		// The needed reductions are now built.
		if built.Computed == 0 {
			t.Errorf("pass %d: lazy store built nothing", pass)
		}
	}
	// Stats-only empty answers work lazily too.
	res, err := lazy.Query(`SELECT * WHERE { ?a <urn:likes> ?b . ?b <urn:likes> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || !res.StatsOnly {
		t.Errorf("lazy empty-correlation: rows=%d statsOnly=%v", res.Len(), res.StatsOnly)
	}
}

// TestLazySaveMatchesEager: saving a lazy store writes every qualifying
// reduction, including the ones no query has built, so its directory is
// byte-identical to the eager store's and both reopen to the same layout.
func TestLazySaveMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var data []Triple
	for range 300 {
		node := func() Term { return rdf.NewIRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
		data = append(data, Triple{S: node(), P: rdf.NewIRI(fmt.Sprintf("urn:p%d", rng.Intn(5))), O: node()})
	}
	eager := Load(data, Options{})
	lazy := Load(data, Options{Lazy: true})
	if _, err := lazy.Query(`SELECT * WHERE { ?x <urn:p0> ?y . ?y <urn:p1> ?z }`); err != nil {
		t.Fatal(err)
	}

	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, st := range []*Store{eager, lazy} {
		if err := st.Save(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dirs[0], "*"))
	if err != nil {
		t.Fatal(err)
	}
	if lazyFiles, _ := filepath.Glob(filepath.Join(dirs[1], "*")); len(lazyFiles) != len(files) {
		t.Fatalf("lazy store wrote %d files, eager %d", len(lazyFiles), len(files))
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
			t.Errorf("%s differs between the lazy and the eager save", filepath.Base(f))
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
	if sizes[0] != sizes[1] {
		t.Errorf("reopened lazy Sizes = %+v, eager %+v", sizes[1], sizes[0])
	}
}
