package layout

import (
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
)

// g1 returns the paper's running-example graph G1 (Fig. 1).
func g1() []rdf.Triple {
	iri := rdf.NewIRI
	follows, likes := iri("follows"), iri("likes")
	return []rdf.Triple{
		{S: iri("A"), P: follows, O: iri("B")},
		{S: iri("B"), P: follows, O: iri("C")},
		{S: iri("B"), P: follows, O: iri("D")},
		{S: iri("C"), P: follows, O: iri("D")},
		{S: iri("A"), P: likes, O: iri("I1")},
		{S: iri("A"), P: likes, O: iri("I2")},
		{S: iri("C"), P: likes, O: iri("I2")},
	}
}

// materialized is DefaultOptions with the reductions kept as row copies.
func materialized() Options {
	opts := DefaultOptions()
	opts.Materialize = true
	return opts
}

func buildG1(t *testing.T, opts Options) *Dataset {
	t.Helper()
	return Build(g1(), opts)
}

func pid(ds *Dataset, name string) dict.ID {
	return ds.Dict.Lookup(rdf.NewIRI(name))
}

func TestBuildVPFromG1(t *testing.T) {
	ds := buildG1(t, Options{})
	if ds.NumTriples() != 7 {
		t.Fatalf("NumTriples = %d", ds.NumTriples())
	}
	if len(ds.VP) != 2 {
		t.Fatalf("VP tables = %d, want 2", len(ds.VP))
	}
	follows := ds.VP[pid(ds, "follows")]
	likes := ds.VP[pid(ds, "likes")]
	if follows.NumRows() != 4 || likes.NumRows() != 3 {
		t.Errorf("|VP_follows| = %d, |VP_likes| = %d", follows.NumRows(), likes.NumRows())
	}
	// VP tables must view the TT without copying.
	if &follows.Data[0][0] == nil {
		t.Fatal("unreachable")
	}
}

// TestExtVPMatchesPaperFigure10 checks every table of the worked example in
// Fig. 10 of the paper.
func TestExtVPMatchesPaperFigure10(t *testing.T) {
	ds := buildG1(t, materialized())
	f, l := pid(ds, "follows"), pid(ds, "likes")

	cases := []struct {
		key  ExtKey
		rows int
		sf   float64
		mat  bool // materialized
	}{
		// Left half of Fig. 10 (reductions of VP_follows).
		{ExtKey{OS, f, f}, 2, 0.5, true},  // {(A,B),(B,C)}
		{ExtKey{OS, f, l}, 1, 0.25, true}, // {(B,C)}
		{ExtKey{SO, f, f}, 3, 0.75, true}, // {(B,C),(B,D),(C,D)}
		{ExtKey{SO, f, l}, 0, 0, false},   // empty
		{ExtKey{SS, f, l}, 2, 0.5, true},  // {(A,B),(C,D)}
		// Right half (reductions of VP_likes).
		{ExtKey{OS, l, f}, 0, 0, false},      // empty
		{ExtKey{OS, l, l}, 0, 0, false},      // empty
		{ExtKey{SO, l, f}, 1, 1.0 / 3, true}, // {(C,I2)}
		{ExtKey{SO, l, l}, 0, 0, false},      // empty
		{ExtKey{SS, l, f}, 3, 1, false},      // equals VP, not stored
	}
	for _, c := range cases {
		info := ds.ExtInfo(c.key)
		if info.Rows != c.rows {
			t.Errorf("%v: rows = %d, want %d", c.key, info.Rows, c.rows)
		}
		if diff := info.SF - c.sf; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v: SF = %v, want %v", c.key, info.SF, c.sf)
		}
		_, stored := ds.ExtVP[c.key]
		if stored != c.mat {
			t.Errorf("%v: materialized = %v, want %v", c.key, stored, c.mat)
		}
	}

	// Check actual tuples of ExtVP_OS follows|likes = {(B,C)}.
	tbl := ds.ExtVP[ExtKey{OS, f, l}]
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	b := ds.Dict.Lookup(rdf.NewIRI("B"))
	cID := ds.Dict.Lookup(rdf.NewIRI("C"))
	if tbl.Data[0][0] != b || tbl.Data[1][0] != cID {
		t.Errorf("ExtVP_OS follows|likes = (%d,%d), want (B=%d, C=%d)",
			tbl.Data[0][0], tbl.Data[1][0], b, cID)
	}
}

func TestExtVPSelfSSNotBuilt(t *testing.T) {
	ds := buildG1(t, DefaultOptions())
	f := pid(ds, "follows")
	// SS self-correlation is the identity; it must never appear.
	if _, ok := ds.Info[ExtKey{SS, f, f}]; ok {
		t.Error("SS self-reduction was computed")
	}
	if info := ds.ExtInfo(ExtKey{SS, f, f}); info.SF != 1 {
		t.Errorf("SS self SF = %v, want 1", info.SF)
	}
}

func TestExtVPThreshold(t *testing.T) {
	// With threshold 0.5, tables with SF >= 0.5 must not be materialized
	// but their stats must survive.
	ds := buildG1(t, Options{BuildExtVP: true, Threshold: 0.5, Materialize: true})
	f, l := pid(ds, "follows"), pid(ds, "likes")

	if _, ok := ds.ExtVP[ExtKey{SO, f, f}]; ok { // SF = 0.75
		t.Error("SF 0.75 table materialized despite threshold 0.5")
	}
	info := ds.ExtInfo(ExtKey{SO, f, f})
	if info.Materialized || info.Rows != 3 {
		t.Errorf("cut table info = %+v", info)
	}
	if _, ok := ds.ExtVP[ExtKey{OS, f, l}]; !ok { // SF = 0.25
		t.Error("SF 0.25 table missing despite threshold 0.5")
	}
	// SF exactly at the threshold is cut (strict <).
	if _, ok := ds.ExtVP[ExtKey{OS, f, f}]; ok { // SF = 0.5
		t.Error("SF 0.50 table materialized despite threshold 0.5 (must be strict)")
	}
}

func TestExtVPOOAblation(t *testing.T) {
	dsNo := buildG1(t, DefaultOptions())
	for key := range dsNo.Info {
		if key.Kind == OO {
			t.Fatalf("OO table %v built without BuildOO", key)
		}
	}
	opts := DefaultOptions()
	opts.BuildOO = true
	ds := Build(g1(), opts)
	f, l := pid(ds, "follows"), pid(ds, "likes")
	// OO follows|likes: follows tuples whose object is also a likes object
	// — no overlap in G1 (likes objects are I1, I2), so empty.
	if info := ds.ExtInfo(ExtKey{OO, f, l}); info.Rows != 0 {
		t.Errorf("OO follows|likes rows = %d, want 0", info.Rows)
	}
	// OO likes|follows: likes tuples whose object is a follows object: none.
	if info := ds.ExtInfo(ExtKey{OO, l, f}); info.Rows != 0 {
		t.Errorf("OO likes|follows rows = %d, want 0", info.Rows)
	}
}

func TestSizesSummary(t *testing.T) {
	ds := buildG1(t, DefaultOptions())
	s := ds.Sizes()
	if s.Triples != 7 || s.VPTables != 2 {
		t.Errorf("summary = %+v", s)
	}
	// Candidates for k=2: 2*4 (OS,SO) + 2 (SS) = 10.
	// From Fig. 10: materialized = 5, empty = 4, equalVP = 1.
	if s.ExtTables != 5 {
		t.Errorf("ExtTables = %d, want 5", s.ExtTables)
	}
	if s.ExtEmpty != 4 {
		t.Errorf("ExtEmpty = %d, want 4", s.ExtEmpty)
	}
	if s.ExtEqualVP != 1 {
		t.Errorf("ExtEqualVP = %d, want 1", s.ExtEqualVP)
	}
	if s.ExtTuples != 2+1+3+2+1 {
		t.Errorf("ExtTuples = %d, want 9", s.ExtTuples)
	}
	if s.TotalTuples != s.Triples+s.ExtTuples {
		t.Errorf("TotalTuples = %d", s.TotalTuples)
	}
}

func TestSizesRespectThreshold(t *testing.T) {
	full := buildG1(t, DefaultOptions()).Sizes()
	cut := Build(g1(), Options{BuildExtVP: true, Threshold: 0.3}).Sizes()
	if cut.ExtTuples >= full.ExtTuples {
		t.Errorf("threshold did not reduce tuples: %d vs %d", cut.ExtTuples, full.ExtTuples)
	}
	if cut.ExtCut == 0 {
		t.Error("no tables recorded as cut")
	}
}

func TestPropertyTable(t *testing.T) {
	iri := rdf.NewIRI
	triples := append(g1(),
		rdf.Triple{S: iri("A"), P: iri("age"), O: rdf.NewInteger(30)},
		rdf.Triple{S: iri("B"), P: iri("age"), O: rdf.NewInteger(25)},
	)
	opts := Options{BuildPT: true}
	ds := Build(triples, opts)
	pt := ds.PT
	if pt == nil {
		t.Fatal("PT not built")
	}
	// follows and likes are multi-valued in G1; age is functional.
	if !pt.MultiValued[pid(ds, "follows")] {
		t.Error("follows should be multi-valued")
	}
	if pt.IsFunctional(pid(ds, "follows")) {
		t.Error("follows should not be a column")
	}
	age := pid(ds, "age")
	if !pt.IsFunctional(age) {
		t.Fatal("age should be a column")
	}
	a := ds.Dict.Lookup(iri("A"))
	v, ok := pt.Value(a, age)
	if !ok || ds.Dict.Decode(v) != rdf.NewInteger(30) {
		t.Errorf("PT[A].age = %v, %v", v, ok)
	}
	if _, ok := pt.Value(ds.Dict.Lookup(iri("C")), age); ok {
		t.Error("C has no age but PT returned one")
	}
	if len(pt.Columns) != 1 {
		t.Errorf("%d columns, want 1", len(pt.Columns))
	}
	if pt.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2 (A and B)", pt.NumRows())
	}
}

func TestCorrelationString(t *testing.T) {
	if SS.String() != "SS" || OS.String() != "OS" || SO.String() != "SO" || OO.String() != "OO" {
		t.Error("correlation names wrong")
	}
	if Correlation(9).String() != "Correlation(9)" {
		t.Error("unknown correlation name wrong")
	}
}

func TestTableNames(t *testing.T) {
	ds := buildG1(t, DefaultOptions())
	f, l := pid(ds, "follows"), pid(ds, "likes")
	if got := VPName(ds.Dict, f); got != "VP:<follows>" {
		t.Errorf("VPName = %q", got)
	}
	if got := ExtVPName(ds.Dict, ExtKey{OS, f, l}); got != "ExtVP:OS:<follows>|<likes>" {
		t.Errorf("ExtVPName = %q", got)
	}
}

func TestEncodeSortsByPredicate(t *testing.T) {
	d := dict.New()
	tt := Encode(g1(), d)
	ps := tt.Data[1]
	for i := 1; i < len(ps); i++ {
		if ps[i] < ps[i-1] {
			t.Fatal("TT not sorted by predicate")
		}
	}
}

// TestExtVPJoinEquivalence is the core correctness property of ExtVP
// (paper Sec. 5.2): VP_p1 ⋈ VP_p2 = ExtVP_p1|p2 ⋈ ExtVP_p2|p1 for the
// matching correlation pair.
func TestExtVPJoinEquivalence(t *testing.T) {
	ds := buildG1(t, materialized())
	f, l := pid(ds, "follows"), pid(ds, "likes")

	// OS join: follows.o = likes.s.
	vpJoin := map[[4]dict.ID]bool{}
	fvp, lvp := ds.VP[f], ds.VP[l]
	for i := 0; i < fvp.NumRows(); i++ {
		for j := 0; j < lvp.NumRows(); j++ {
			if fvp.Data[1][i] == lvp.Data[0][j] {
				vpJoin[[4]dict.ID{fvp.Data[0][i], fvp.Data[1][i], lvp.Data[0][j], lvp.Data[1][j]}] = true
			}
		}
	}
	// Reduced side tables: ExtVP_OS f|l and ExtVP_SO l|f.
	left := ds.ExtVP[ExtKey{OS, f, l}]
	right := ds.ExtVP[ExtKey{SO, l, f}]
	extJoin := map[[4]dict.ID]bool{}
	for i := 0; i < left.NumRows(); i++ {
		for j := 0; j < right.NumRows(); j++ {
			if left.Data[1][i] == right.Data[0][j] {
				extJoin[[4]dict.ID{left.Data[0][i], left.Data[1][i], right.Data[0][j], right.Data[1][j]}] = true
			}
		}
	}
	if len(vpJoin) != len(extJoin) {
		t.Fatalf("join sizes differ: VP %d vs ExtVP %d", len(vpJoin), len(extJoin))
	}
	for k := range vpJoin {
		if !extJoin[k] {
			t.Errorf("tuple %v missing from ExtVP join", k)
		}
	}
}
