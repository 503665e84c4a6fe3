package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

// randomGraph returns a seeded random graph of seven predicates over a
// shared node pool, so terms occur in both subject and object positions.
// Predicate "one" has a single triple, and the last triple's object is a
// term seen nowhere else, so it holds the highest dictionary ID.
func randomGraph(seed int64) []rdf.Triple {
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
	for p := 0; p < 6; p++ {
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
// eager builds (materialized, bit vectors, threshold 0.5) and of the lazy
// path against the map-based reference, on random graphs.
func TestReduceMatchesNaiveSemiJoin(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomGraph(seed)
		builds := map[string]Options{
			"materialized": {BuildExtVP: true, BuildOO: true},
			"bitvectors":   {BuildExtVP: true, BuildOO: true, BitVectors: true},
			"threshold0.5": {BuildExtVP: true, BuildOO: true, Threshold: 0.5},
		}
		for name, opts := range builds {
			ds := Build(g, opts)
			if n := ds.Dict.Len(); len(ds.Predicates) < 7 || ds.Dict.Lookup(rdf.NewIRI("tail")) != dict.ID(n-1) {
				t.Fatalf("seed %d: fixture lost its shape (%d predicates)", seed, len(ds.Predicates))
			}
			for _, key := range candidates(ds) {
				rows := naiveReduce(ds, key)
				want := wantInfo(len(rows), ds.VP[key.P1].NumRows(), ds.Threshold)
				if got := ds.ExtInfo(key); got != want {
					t.Fatalf("seed %d %s %v: info %+v, want %+v", seed, name, key, got, want)
				}
				tbl, bits := ds.ExtVP[key], ds.ExtBits[key]
				switch {
				case !want.Materialized:
					if tbl != nil || bits != nil {
						t.Fatalf("seed %d %s %v: unqualified reduction stored", seed, name, key)
					}
				case opts.BitVectors:
					var got []int
					for i := 0; i < bits.Len(); i++ {
						if bits.Get(i) {
							got = append(got, i)
						}
					}
					if bits.Len() != ds.VP[key.P1].NumRows() || !reflect.DeepEqual(got, rows) || tbl != nil {
						t.Fatalf("seed %d %s %v: bits %v, want %v", seed, name, key, got, rows)
					}
				default:
					got, want := tableRows(tbl), vpRows(ds, key.P1, rows)
					if !reflect.DeepEqual(got, want) || bits != nil {
						t.Fatalf("seed %d %s %v: rows %v, want %v", seed, name, key, got, want)
					}
				}
			}
		}

		// The lazy path counts every SS/OS/SO candidate at construction,
		// then builds rows in shuffled key order, so its one set pair is
		// refilled on most P2 changes. OO is ablation-only and not counted.
		ds := Build(g, Options{})
		lazy := NewLazyExtVP(ds)
		keys := slices.DeleteFunc(candidates(ds), func(k ExtKey) bool { return k.Kind == OO })
		for _, key := range keys {
			want := wantInfo(len(naiveReduce(ds, key)), ds.VP[key.P1].NumRows(), 1)
			if got := ds.ExtInfo(key); got != want {
				t.Fatalf("seed %d lazy %v: info at construction %+v, want %+v", seed, key, got, want)
			}
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, key := range keys {
			rows := naiveReduce(ds, key)
			tbl := lazy.EnsureTable(key)
			if (tbl != nil) != ds.ExtInfo(key).Materialized {
				t.Fatalf("seed %d lazy %v: EnsureTable built %v, info %+v", seed, key, tbl != nil, ds.ExtInfo(key))
			}
			if tbl == nil {
				continue
			}
			if got, want := tableRows(tbl), vpRows(ds, key.P1, rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d lazy %v: rows %v, want %v", seed, key, got, want)
			}
		}
	}
}
