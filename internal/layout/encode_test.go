package layout

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
)

// duplicateGraph returns n seeded random triples over a pool of terms
// that occur as subjects, predicates and objects alike, with literals
// among the objects and every tenth triple a repeat of an earlier one.
func duplicateGraph(seed int64, n, pool int) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	term := func() rdf.Term { return rdf.NewIRI(fmt.Sprintf("urn:t%d", rng.Intn(pool))) }
	g := make([]rdf.Triple, 0, n)
	for len(g) < n {
		if len(g) > 0 && rng.Intn(10) == 0 {
			g = append(g, g[rng.Intn(len(g))])
			continue
		}
		t := rdf.Triple{S: term(), P: rdf.NewIRI(fmt.Sprintf("urn:t%d", rng.Intn(12))), O: term()}
		if rng.Intn(4) == 0 {
			t.O = rdf.Term(fmt.Sprintf("%q", fmt.Sprint(rng.Intn(pool))))
		}
		g = append(g, t)
	}
	return g
}

// referenceEncode is the encoding Encode must reproduce: Dict.Encode on
// each subject, predicate and object in turn, then a (p, s, o) sort.
func referenceEncode(triples []rdf.Triple) (*dict.Dict, [][3]dict.ID) {
	d := dict.New()
	rows := make([][3]dict.ID, len(triples))
	for i, t := range triples {
		rows[i] = [3]dict.ID{d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[2] < b[2]
	})
	return d, rows
}

func TestEncodeMatchesPerTermReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		// A small pool keeps IDs within one radix digit; a large one needs
		// two, and 10000 triples span several EncodeReader batches.
		n, pool := 3000, 40
		if seed%2 == 0 {
			n, pool = 10000, 5000
		}
		g := duplicateGraph(seed, n, pool)
		want, rows := referenceEncode(g)
		var nt bytes.Buffer
		w := rdf.NewWriter(&nt)
		for _, tr := range g {
			if err := w.Write(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fromReader := dict.New()
		ttReader, err := EncodeReader(&nt, fromReader)
		if err != nil {
			t.Fatal(err)
		}
		fromSlice := dict.New()
		for name, c := range map[string]struct {
			d    *dict.Dict
			cols [][]dict.ID
		}{
			"Encode":       {fromSlice, Encode(g, fromSlice).Data},
			"EncodeReader": {fromReader, ttReader.Data},
		} {
			if c.d.Len() != want.Len() {
				t.Fatalf("seed %d %s: %d terms, want %d", seed, name, c.d.Len(), want.Len())
			}
			for id := range dict.ID(want.Len()) {
				if c.d.Decode(id) != want.Decode(id) {
					t.Fatalf("seed %d %s: term %d is %s, want %s", seed, name, id, c.d.Decode(id), want.Decode(id))
				}
			}
			if len(c.cols[0]) != len(rows) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, name, len(c.cols[0]), len(rows))
			}
			for i, r := range rows {
				if got := [3]dict.ID{c.cols[0][i], c.cols[1][i], c.cols[2][i]}; got != r {
					t.Fatalf("seed %d %s: row %d = %v, want %v", seed, name, i, got, r)
				}
			}
		}
	}
}

func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{0, 1, 11, 12, 22, 23, 32} {
		keys := make([]uint64, 3000)
		for i := range keys {
			s, o := rng.Uint64()&(1<<width-1), rng.Uint64()&(1<<width-1)
			if i%5 == 0 {
				s = keys[i/2] >> 32 // repeated subjects
			}
			keys[i] = s<<32 | o
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		radixSort(keys, make([]uint64, len(keys)), width)
		if !slices.Equal(keys, want) {
			t.Fatalf("width %d: radix order differs from slices.Sort", width)
		}
	}
}
