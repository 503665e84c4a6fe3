package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

// randomGraph returns a seeded random graph of seven predicates over a
// shared node pool, so terms occur in both subject and object positions.
// Predicate "one" has a single triple, and the last triple's object is a
// term seen nowhere else, so it holds the highest dictionary ID.
func randomGraph(seed int64) []rdf.Triple { return randomGraphOf(seed, 6) }

// randomGraphOf is randomGraph with preds+1 predicates.
func randomGraphOf(seed int64, preds int) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	iri := rdf.NewIRI
	node := func() rdf.Term { return iri(fmt.Sprintf("n%d", rng.Intn(30))) }
	seen := map[rdf.Triple]bool{}
	var g []rdf.Triple
	add := func(t rdf.Triple) {
		if !seen[t] {
			seen[t] = true
			g = append(g, t)
		}
	}
	for p := 0; p < preds; p++ {
		pred := iri(fmt.Sprintf("p%d", p))
		for n := 1 + rng.Intn(60); n > 0; n-- {
			add(rdf.Triple{S: node(), P: pred, O: node()})
		}
	}
	add(rdf.Triple{S: node(), P: iri("one"), O: node()})
	add(rdf.Triple{S: iri("n0"), P: iri("p0"), O: iri("tail")})
	return g
}

// naiveReduce is the reference semi-join: the rows of VP[key.P1] whose
// join column value occurs in the matching column of VP[key.P2], found with
// a Go map.
func naiveReduce(ds *Dataset, key ExtKey) (rows []int) {
	p1, p2 := ds.VP[key.P1], ds.VP[key.P2]
	col, other := p1.Data[0], p2.Data[0]
	if key.Kind == OS || key.Kind == OO {
		col = p1.Data[1]
	}
	if key.Kind == SO || key.Kind == OO {
		other = p2.Data[1]
	}
	set := map[dict.ID]bool{}
	for _, v := range other {
		set[v] = true
	}
	for i, v := range col {
		if set[v] {
			rows = append(rows, i)
		}
	}
	return rows
}

// candidates lists every SS/OS/SO/OO key the builders consider.
func candidates(ds *Dataset) []ExtKey {
	var keys []ExtKey
	for _, p1 := range ds.Predicates {
		for _, p2 := range ds.Predicates {
			for _, kind := range []Correlation{SS, OS, SO, OO} {
				if p1 != p2 || kind == OS || kind == SO {
					keys = append(keys, ExtKey{kind, p1, p2})
				}
			}
		}
	}
	return keys
}

// wantInfo is the statistics ExtInfo must report for a reduction of
// matches rows out of n under threshold; a full reduction is not recorded
// and reads as VP.
func wantInfo(matches, n int, threshold float64) TableInfo {
	if matches == n {
		return TableInfo{Rows: n, SF: 1}
	}
	sf := float64(matches) / float64(n)
	return TableInfo{Rows: matches, SF: sf, Materialized: matches > 0 && sf < threshold}
}

// tableRows lists tbl's (s, o) rows.
func tableRows(tbl *store.Table) [][2]dict.ID {
	var out [][2]dict.ID
	for i := range tbl.NumRows() {
		out = append(out, [2]dict.ID{tbl.Data[0][i], tbl.Data[1][i]})
	}
	return out
}

// vpRows lists the (s, o) rows of VP[p] at the given indices.
func vpRows(ds *Dataset, p dict.ID, rows []int) [][2]dict.ID {
	var out [][2]dict.ID
	for _, i := range rows {
		out = append(out, [2]dict.ID{ds.VP[p].Data[0][i], ds.VP[p].Data[1][i]})
	}
	return out
}

// TestReduceMatchesNaiveSemiJoin checks every candidate reduction of the
// builds (materialized, bit vectors, threshold 0.5) against the map-based
// reference, on random graphs, one of them with more than 64 predicates. A
// bit-vector reduction's distinct counts must equal those of the reference
// rows, as a row copy's Finalize counts them. Each build is saved and
// loaded again, and the reopened dataset must pass the same checks and
// equal the built one; so must reopened stores built without ExtVP and
// with threshold 0.25.
func TestReduceMatchesNaiveSemiJoin(t *testing.T) {
	graphs := map[string][]rdf.Triple{}
	for seed := int64(1); seed <= 5; seed++ {
		graphs[fmt.Sprintf("seed %d", seed)] = randomGraph(seed)
	}
	graphs["70 predicates"] = randomGraphOf(6, 69)
	builds := map[string]Options{
		"materialized": {BuildExtVP: true, BuildOO: true, Materialize: true},
		"bitvectors":   {BuildExtVP: true, BuildOO: true},
		"threshold0.5": {BuildExtVP: true, BuildOO: true, Threshold: 0.5, Materialize: true},
	}
	for gname, g := range graphs {
		for name, opts := range builds {
			ds := Build(g, opts)
			if n := ds.Dict.Len(); len(ds.Predicates) < 7 || ds.Dict.Lookup(rdf.NewIRI("tail")) != dict.ID(n-1) {
				t.Fatalf("%s: fixture lost its shape (%d predicates)", gname, len(ds.Predicates))
			}
			checkReductions(t, gname+" "+name, ds)
			got := reopen(t, ds)
			checkReductions(t, gname+" "+name+" reopened", got)
			checkSameDataset(t, gname+" "+name, got, ds)
		}
	}
	for name, opts := range map[string]Options{
		"no ExtVP":      {},
		"threshold0.25": {BuildExtVP: true, Threshold: 0.25},
	} {
		ds := Build(randomGraph(1), opts)
		checkSameDataset(t, name, reopen(t, ds), ds)
	}
}

// reopen saves ds and loads it back.
func reopen(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	dir := t.TempDir()
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkReductions checks every candidate reduction of ds against
// naiveReduce.
func checkReductions(t *testing.T, label string, ds *Dataset) {
	t.Helper()
	for _, key := range candidates(ds) {
		if key.Kind == OO && !ds.Options.BuildOO {
			continue
		}
		rows := naiveReduce(ds, key)
		want := wantInfo(len(rows), ds.VP[key.P1].NumRows(), ds.Options.Threshold)
		if got := ds.ExtInfo(key); got != want {
			t.Fatalf("%s %v: info %+v, want %+v", label, key, got, want)
		}
		tbl, bt := ds.ExtVP[key], ds.ExtBits[key]
		switch {
		case !want.Materialized:
			if tbl != nil || bt != nil {
				t.Fatalf("%s %v: unqualified reduction stored", label, key)
			}
		case !ds.Options.Materialize:
			bits := bt.Bits
			var got []int
			for i := 0; i < bits.Len(); i++ {
				if bits.Get(i) {
					got = append(got, i)
				}
			}
			if bits.Len() != ds.VP[key.P1].NumRows() || !reflect.DeepEqual(got, rows) || tbl != nil {
				t.Fatalf("%s %v: bits %v, want %v", label, key, got, rows)
			}
			ref := store.NewTable("ref", "s", "o")
			for _, r := range vpRows(ds, key.P1, rows) {
				ref.Append(r[0], r[1])
			}
			ref.Finalize()
			if bt.DistinctOf("s") != ref.DistinctOf("s") || bt.DistinctOf("o") != ref.DistinctOf("o") {
				t.Fatalf("%s %v: NDV %d/%d, want %d/%d", label, key,
					bt.DistinctS, bt.DistinctO, ref.DistinctOf("s"), ref.DistinctOf("o"))
			}
		default:
			got, want := tableRows(tbl), vpRows(ds, key.P1, rows)
			if !reflect.DeepEqual(got, want) || bt != nil {
				t.Fatalf("%s %v: rows %v, want %v", label, key, got, want)
			}
			if tbl.DistinctOf("s") == 0 || tbl.DistinctOf("o") == 0 {
				t.Fatalf("%s %v: row copy without distinct counts", label, key)
			}
		}
	}
}

// checkSameDataset checks that got has want's options, statistics, sizes
// and reductions: the same bit vectors with the same names and distinct
// counts, and the same row copies.
func checkSameDataset(t *testing.T, label string, got, want *Dataset) {
	t.Helper()
	if got.Options != want.Options {
		t.Fatalf("%s: options %+v, want %+v", label, got.Options, want.Options)
	}
	if !reflect.DeepEqual(got.Info, want.Info) {
		t.Fatalf("%s: Info differs", label)
	}
	if got.Sizes() != want.Sizes() {
		t.Fatalf("%s: sizes %+v, want %+v", label, got.Sizes(), want.Sizes())
	}
	if !reflect.DeepEqual(got.ExtBits, want.ExtBits) {
		t.Fatalf("%s: bit-vector reductions differ", label)
	}
	if len(got.ExtVP) != len(want.ExtVP) {
		t.Fatalf("%s: %d row copies, want %d", label, len(got.ExtVP), len(want.ExtVP))
	}
	for key, tbl := range want.ExtVP {
		if g := got.ExtVP[key]; g == nil || !reflect.DeepEqual(tableRows(g), tableRows(tbl)) || !reflect.DeepEqual(g.Distinct, tbl.Distinct) {
			t.Fatalf("%s %v: row copy differs", label, key)
		}
	}
}
