// Package layout implements the relational mappings for RDF data that the
// paper compares (Sec. 4) and contributes (Sec. 5): the Triples Table (TT),
// Vertical Partitioning (VP), Property Tables (PT) and the paper's novel
// Extended Vertical Partitioning (ExtVP) with its SS/OS/SO semi-join
// reductions, selectivity statistics and SF threshold.
package layout

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

// Correlation identifies the join-correlation kind between two triple
// patterns (paper Fig. 9).
type Correlation uint8

const (
	// SS is a subject-subject correlation (star joins).
	SS Correlation = iota
	// OS is an object-subject correlation (forward path joins).
	OS
	// SO is a subject-object correlation (backward path joins).
	SO
	// OO is an object-object correlation; the paper chooses not to
	// materialize these (Sec. 5.2). Supported for the ablation experiment.
	OO
)

// correlationNames holds each correlation's name in table names and meta.json.
var correlationNames = [...]string{SS: "SS", OS: "OS", SO: "SO", OO: "OO"}

// String returns the correlation name as used in table names.
func (c Correlation) String() string {
	if int(c) < len(correlationNames) {
		return correlationNames[c]
	}
	return fmt.Sprintf("Correlation(%d)", int(c))
}

// ExtKey identifies one ExtVP table: the reduction of VP[P1] against VP[P2]
// under the given correlation.
type ExtKey struct {
	Kind   Correlation
	P1, P2 dict.ID
}

// TableInfo records the statistics S2RDF keeps for every candidate ExtVP
// table, including the ones that were not materialized because they are
// empty, equal to VP, or above the SF threshold (paper Sec. 5.2/5.3).
type TableInfo struct {
	Rows         int
	SF           float64
	Materialized bool
}

// Options configures dataset construction.
type Options struct {
	// Threshold is the SF threshold: ExtVP tables with SF >= Threshold are
	// not materialized. 1.0 (the default via DefaultOptions) keeps every
	// non-trivial table, matching "no threshold" in the paper (SF<1 tables
	// are always kept; SF=1 tables never are, they equal VP).
	Threshold float64
	// BuildExtVP controls whether the ExtVP tables are computed.
	BuildExtVP bool
	// BuildOO additionally materializes OO reductions (ablation only).
	BuildOO bool
	// BuildPT builds the Sempala-style property table.
	BuildPT bool
	// BitVectors stores ExtVP reductions as selection bit vectors over the
	// VP tables instead of materialized row copies — the compact
	// representation the paper proposes as future work (Sec. 8). One
	// reduction then costs |VP_p1|/8 bytes, and several reductions of the
	// same pattern can be intersected with a word-wise AND.
	BitVectors bool
}

// DefaultOptions enables ExtVP with no SF threshold.
func DefaultOptions() Options {
	return Options{Threshold: 1.0, BuildExtVP: true}
}

// Dataset is a fully loaded RDF dataset in all requested layouts, sharing
// one term dictionary.
type Dataset struct {
	Dict *dict.Dict
	// TT is the triples table (columns s, p, o), sorted by (p, s, o).
	TT *store.Table
	// VP maps predicate ID to its two-column table (columns s, o), sorted
	// by (s, o).
	VP map[dict.ID]*store.Table
	// ExtVP holds the materialized semi-join reductions (row copies).
	ExtVP map[ExtKey]*store.Table
	// ExtBits holds the reductions in bit-vector form when the dataset was
	// built with Options.BitVectors: bit i marks row i of VP[key.P1].
	ExtBits map[ExtKey]*bitvec.Bitset
	// Info holds statistics for every candidate ExtVP table (materialized
	// or not). Missing entries mean the reduction equals VP (SF = 1).
	Info map[ExtKey]TableInfo
	// PT is the Sempala-style unified property table (nil unless built).
	PT *PropertyTable
	// Predicates lists all predicate IDs, sorted.
	Predicates []dict.ID
	// Threshold is the SF threshold the ExtVP tables were built with.
	Threshold float64
}

// NumTriples returns the dataset size |G|.
func (d *Dataset) NumTriples() int { return d.TT.NumRows() }

// Build constructs a dataset from triples according to opts.
func Build(triples []rdf.Triple, opts Options) *Dataset {
	d := dict.New()
	return BuildEncoded(Encode(triples, d), d, opts)
}

// Encode dictionary-encodes triples into a TT table sorted by (p, s, o).
func Encode(triples []rdf.Triple, d *dict.Dict) *store.Table {
	type enc struct{ s, p, o dict.ID }
	rows := make([]enc, len(triples))
	for i, t := range triples {
		s, p, o := d.EncodeTriple(t)
		rows[i] = enc{s, p, o}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].p != rows[j].p {
			return rows[i].p < rows[j].p
		}
		if rows[i].s != rows[j].s {
			return rows[i].s < rows[j].s
		}
		return rows[i].o < rows[j].o
	})
	tt := store.NewTable("TT", "s", "p", "o")
	tt.Data[0] = make([]dict.ID, len(rows))
	tt.Data[1] = make([]dict.ID, len(rows))
	tt.Data[2] = make([]dict.ID, len(rows))
	for i, r := range rows {
		tt.Data[0][i] = r.s
		tt.Data[1][i] = r.p
		tt.Data[2][i] = r.o
	}
	// The (p,s,o) sort makes p the detected sort column: TT-mode scans
	// binary search the predicate run instead of reading the whole table.
	tt.Finalize()
	return tt
}

// BuildEncoded constructs a dataset from an already-encoded triples table.
func BuildEncoded(tt *store.Table, d *dict.Dict, opts Options) *Dataset {
	if opts.Threshold <= 0 {
		opts.Threshold = 1.0
	}
	ds := newDataset(d, tt, opts.Threshold)
	if opts.BuildExtVP {
		ds.buildExtVP(opts, true)
	}
	if opts.BuildPT {
		ds.PT = buildPT(ds)
	}
	return ds
}

// newDataset returns a dataset over tt with VP sliced out of it and no
// ExtVP reductions yet: the state Build and Load share.
func newDataset(d *dict.Dict, tt *store.Table, threshold float64) *Dataset {
	ds := &Dataset{
		Dict:      d,
		TT:        tt,
		VP:        make(map[dict.ID]*store.Table),
		ExtVP:     make(map[ExtKey]*store.Table),
		ExtBits:   make(map[ExtKey]*bitvec.Bitset),
		Info:      make(map[ExtKey]TableInfo),
		Threshold: threshold,
	}
	ds.buildVP()
	return ds
}

// buildVP slices the (p,s,o)-sorted TT into one table per predicate.
func (ds *Dataset) buildVP() {
	n := ds.TT.NumRows()
	ps := ds.TT.Data[1]
	for i := 0; i < n; {
		j := i + 1
		for j < n && ps[j] == ps[i] {
			j++
		}
		p := ps[i]
		t := store.NewTable(VPName(ds.Dict, p), "s", "o")
		// Capped at the run's end, so an append to a VP column copies
		// instead of overwriting the next predicate's rows in TT.
		t.Data[0] = ds.TT.Data[0][i:j:j]
		t.Data[1] = ds.TT.Data[2][i:j:j]
		// The TT (p,s,o) sort leaves each slice sorted by (s,o): Finalize
		// records s as the sort column plus zone maps and distinct counts.
		t.Finalize()
		ds.VP[p] = t
		ds.Predicates = append(ds.Predicates, p)
		i = j
	}
	sort.Slice(ds.Predicates, func(i, j int) bool { return ds.Predicates[i] < ds.Predicates[j] })
}

// semiSets holds the subject and object sets of one predicate P2 as bitsets
// over the dictionary's dense ID range: the probe side of every semi-join
// VP[P1] ⋉ VP[P2]. One pair is reused for every P2 in turn, so set memory
// is 2 × ⌈|dict|/64⌉ words per pair however many predicates there are.
type semiSets struct {
	p                 dict.ID // the predicate the sets hold; NoID when empty
	subjects, objects *bitvec.Bitset
}

func newSemiSets(n int) *semiSets {
	return &semiSets{p: dict.NoID, subjects: bitvec.New(n), objects: bitvec.New(n)}
}

// fill makes the sets hold VP[p]'s subjects and objects.
func (s *semiSets) fill(ds *Dataset, p dict.ID) {
	if s.p == p {
		return
	}
	s.subjects.Reset()
	s.objects.Reset()
	vp := ds.VP[p]
	for _, v := range vp.Data[0] {
		s.subjects.Set(int(v))
	}
	for _, v := range vp.Data[1] {
		s.objects.Set(int(v))
	}
	s.p = p
}

// buildExtVP computes the semi-join reductions of every VP table pair for
// the SS, OS and SO correlations (and OO when requested), in parallel.
// This is the preprocessing the paper performs at load time (Sec. 5.2).
// Work is split by P2: a worker fills its one set pair from VP[P2] and
// reduces every VP[P1] against it, so every group scans all VP tables.
// Every candidate's statistics land in Info; the qualifying reductions are
// kept (as rows, or as bits with opts.BitVectors) only when retain is set.
func (ds *Dataset) buildExtVP(opts Options, retain bool) {
	kinds := []Correlation{SS, OS, SO}
	if opts.BuildOO {
		kinds = append(kinds, OO)
	}
	preds := ds.Predicates
	next := make(chan dict.ID, len(preds))
	for _, p := range preds {
		next <- p
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(preds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets := newSemiSets(ds.Dict.Len())
			for p2 := range next {
				sets.fill(ds, p2)
				for _, p1 := range preds {
					for _, kind := range kinds {
						if p1 == p2 && (kind == SS || kind == OO) {
							continue // SS and OO of a predicate with itself reduce to VP
						}
						key := ExtKey{kind, p1, p2}
						sel, info := ds.reduce(key, sets, opts.Threshold)
						keep := retain && info.Materialized
						var tbl *store.Table
						if keep && !opts.BitVectors {
							tbl = ds.materialize(key, sel, info.Rows)
						}
						mu.Lock()
						if info.SF < 1 { // SF = 1 tables are not recorded: VP is used
							ds.Info[key] = info
						}
						if tbl != nil {
							ds.ExtVP[key] = tbl
						} else if keep {
							ds.ExtBits[key] = sel
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
}

// reduce runs the semi-join of VP[key.P1] against sets, which must hold
// key.P2. It returns the selection — bit i marks row i of VP[key.P1] — and
// the candidate's statistics under threshold.
func (ds *Dataset) reduce(key ExtKey, sets *semiSets, threshold float64) (*bitvec.Bitset, TableInfo) {
	vp := ds.VP[key.P1]
	col, filter := vp.Data[0], sets.subjects
	if key.Kind == OS || key.Kind == OO {
		col = vp.Data[1]
	}
	if key.Kind == SO || key.Kind == OO {
		filter = sets.objects
	}
	sel := bitvec.New(len(col))
	for i, v := range col {
		if filter.Get(int(v)) {
			sel.Set(i)
		}
	}
	return sel, tableInfo(sel.Count(), len(col), threshold)
}

// tableInfo returns the statistics of a reduction of rows out of the n rows
// of its base VP table: its SF, and whether it qualifies for
// materialization under threshold (0 < rows < n, SF < threshold).
func tableInfo(rows, n int, threshold float64) TableInfo {
	info := TableInfo{Rows: rows, SF: float64(rows) / float64(n)}
	info.Materialized = rows > 0 && rows < n && info.SF < threshold
	return info
}

// materialize copies the rows of VP[key.P1] that sel marks; rows is their
// count.
func (ds *Dataset) materialize(key ExtKey, sel *bitvec.Bitset, rows int) *store.Table {
	vp := ds.VP[key.P1]
	t := store.NewTable(ExtVPName(ds.Dict, key), "s", "o")
	t.Data[0] = make([]dict.ID, 0, rows)
	t.Data[1] = make([]dict.ID, 0, rows)
	for i := range vp.NumRows() {
		if sel.Get(i) {
			t.Data[0] = append(t.Data[0], vp.Data[0][i])
			t.Data[1] = append(t.Data[1], vp.Data[1][i])
		}
	}
	// Reductions preserve the VP (s,o) order, so they stay sorted by s.
	t.Finalize()
	return t
}

// rebuild builds the rows of the qualifying reduction key on its own,
// refilling sets when they do not hold key.P2.
func (ds *Dataset) rebuild(key ExtKey, sets *semiSets) *store.Table {
	sets.fill(ds, key.P2)
	sel, info := ds.reduce(key, sets, ds.Threshold)
	return ds.materialize(key, sel, info.Rows)
}

// ExtInfo returns the statistics for an ExtVP candidate table. When the
// table was never computed (reduction equals VP) it reports SF = 1.
func (ds *Dataset) ExtInfo(key ExtKey) TableInfo {
	if info, ok := ds.Info[key]; ok {
		return info
	}
	rows := 0
	if vp := ds.VP[key.P1]; vp != nil {
		rows = vp.NumRows()
	}
	return TableInfo{Rows: rows, SF: 1}
}

// VPName renders a VP table name, e.g. "VP:wsdbm:follows".
func VPName(d *dict.Dict, p dict.ID) string {
	return "VP:" + shrink(d, p)
}

// ExtVPName renders an ExtVP table name, e.g. "ExtVP:OS:follows|likes".
func ExtVPName(d *dict.Dict, key ExtKey) string {
	return "ExtVP:" + key.Kind.String() + ":" + shrink(d, key.P1) + "|" + shrink(d, key.P2)
}

func shrink(d *dict.Dict, p dict.ID) string {
	return rdf.CommonPrefixes().Shrink(d.Decode(p))
}

// SizeSummary aggregates layout sizes for the load-time experiment
// (paper Table 2 / Table 6).
type SizeSummary struct {
	Triples     int // |G| = tuples in TT and in VP
	VPTables    int
	ExtTables   int // qualifying ExtVP tables (0 < SF < threshold)
	ExtEmpty    int // candidate tables with SF = 0
	ExtEqualVP  int // candidate tables with SF = 1 (not stored)
	ExtCut      int // candidate tables cut by the SF threshold
	ExtTuples   int // total tuples across materialized ExtVP tables
	TotalTuples int // VP + ExtVP tuples
	// ExtBitBytes is the in-memory size of the bit-vector representation
	// (0 unless built with Options.BitVectors).
	ExtBitBytes int
}

// Sizes computes the dataset's size summary from the statistics alone, so
// a lazy store reports the sizes of its full layout.
func (ds *Dataset) Sizes() SizeSummary {
	s := SizeSummary{
		Triples:  ds.NumTriples(),
		VPTables: len(ds.VP),
	}
	k := len(ds.Predicates)
	candidates := 2*k*k + k*(k-1) // OS + SO for all pairs, SS for p1 != p2
	counted := 0
	for key, info := range ds.Info {
		if key.Kind == OO {
			continue // ablation-only tables are not part of the schema
		}
		counted++
		switch {
		case info.Materialized:
			s.ExtTables++
			s.ExtTuples += info.Rows
		case info.Rows == 0:
			s.ExtEmpty++
		default:
			s.ExtCut++
		}
	}
	s.ExtEqualVP = candidates - counted
	s.TotalTuples = s.Triples + s.ExtTuples
	for _, bits := range ds.ExtBits {
		s.ExtBitBytes += bits.Bytes()
	}
	return s
}
