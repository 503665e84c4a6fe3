// Package layout implements the relational mappings for RDF data that the
// paper compares (Sec. 4) and contributes (Sec. 5): the Triples Table (TT),
// Vertical Partitioning (VP), Property Tables (PT) and the paper's novel
// Extended Vertical Partitioning (ExtVP) with its SS/OS/SO semi-join
// reductions, selectivity statistics and SF threshold.
package layout

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"runtime"
	"slices"
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

// correlationNames holds each correlation's name as table names use it.
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
	// Materialize stores ExtVP reductions as row copies of their VP rows,
	// the representation of the paper's evaluation (Sec. 5.2). By default
	// each reduction is a selection bit vector over its VP table instead —
	// the compact representation the paper proposes (Sec. 8): one
	// reduction costs |VP_p1|/8 bytes, and several reductions of the same
	// pattern can be intersected with a word-wise AND.
	Materialize bool
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
	// ExtVP holds the semi-join reductions as row copies, when the dataset
	// was built with Options.Materialize.
	ExtVP map[ExtKey]*store.Table
	// ExtBits holds the reductions in bit-vector form, the default.
	ExtBits map[ExtKey]*BitTable
	// Info holds statistics for every candidate ExtVP table (materialized
	// or not). Missing entries mean the reduction equals VP (SF = 1).
	Info map[ExtKey]TableInfo
	// PT is the Sempala-style unified property table (nil unless built).
	PT *PropertyTable
	// Predicates lists all predicate IDs, sorted.
	Predicates []dict.ID
	// Options are the options the dataset was built with, its threshold
	// folded into (0, 1]. Save records them, and Load builds with them.
	Options Options
}

// NumTriples returns the dataset size |G|.
func (d *Dataset) NumTriples() int { return d.TT.NumRows() }

// Build constructs a dataset from triples according to opts.
func Build(triples []rdf.Triple, opts Options) *Dataset {
	d := dict.New()
	return BuildEncoded(Encode(triples, d), d, opts)
}

// Encode dictionary-encodes triples into a TT table sorted by (p, s, o).
// The whole slice is encoded under one take of d's write lock.
func Encode(triples []rdf.Triple, d *dict.Dict) *store.Table {
	s := make([]dict.ID, len(triples))
	p := make([]dict.ID, len(triples))
	o := make([]dict.ID, len(triples))
	d.EncodeTriples(triples, s, p, o)
	return newTT(s, p, o)
}

// readBatch is the number of triples EncodeReader parses before it encodes
// them under one take of the dictionary's write lock, which is never held
// while r is read.
const readBatch = 4096

// EncodeReader is Encode over N-Triples input. It parses r a batch at a time
// and encodes each batch straight into TT's columns, so the input is never
// held as triples, and each new term is copied out of its line. A parse
// error names its line. It gives the TT and the dictionary IDs Encode gives
// the same triples.
func EncodeReader(r io.Reader, d *dict.Dict) (*store.Table, error) {
	rd := rdf.NewReader(r)
	var s, p, o []dict.ID
	batch := make([]rdf.Triple, 0, readBatch)
	for {
		t, err := rd.Read()
		if err != nil && err != io.EOF {
			return nil, err
		}
		if err == nil {
			batch = append(batch, t)
		}
		if len(batch) == cap(batch) || err == io.EOF {
			n, m := len(s), len(s)+len(batch)
			s = slices.Grow(s, len(batch))[:m]
			p = slices.Grow(p, len(batch))[:m]
			o = slices.Grow(o, len(batch))[:m]
			d.EncodeTriples(batch, s[n:], p[n:], o[n:])
			batch = batch[:0]
		}
		if err == io.EOF {
			return newTT(s, p, o), nil
		}
	}
}

// newTT sorts the encoded rows (s[i], p[i], o[i]) by (p, s, o), in place
// when the columns have no spare capacity, and returns them as TT. Predicate
// IDs are dense, so a counting sort buckets the rows by p; each bucket then
// radix-sorts its rows as packed s<<32|o keys.
func newTT(s, p, o []dict.ID) *store.Table {
	var maxP, top dict.ID
	for i, v := range p {
		maxP = max(maxP, v)
		top |= s[i] | o[i]
	}
	// start[v] is where predicate v's bucket begins, start[v+1] its end.
	start := make([]int, int(maxP)+2)
	for _, v := range p {
		start[v+1]++
	}
	longest := 0
	for v := range maxP + 1 {
		longest = max(longest, start[v+1])
		start[v+1] += start[v]
	}
	next := slices.Clone(start[:maxP+1])
	keys := make([]uint64, len(p))
	for i, v := range p {
		keys[next[v]] = uint64(s[i])<<32 | uint64(o[i])
		next[v]++
	}
	buf := make([]uint64, longest)
	// EncodeReader's columns grew by appends: the sorted rows go into exactly
	// sized ones instead, so the store does not keep the spare capacity.
	if cap(s) > len(s) || cap(p) > len(p) || cap(o) > len(o) {
		s, p, o = make([]dict.ID, len(s)), make([]dict.ID, len(p)), make([]dict.ID, len(o))
	}
	for v := range maxP + 1 {
		lo, hi := start[v], start[v+1]
		if hi-lo > 1 {
			radixSort(keys[lo:hi], buf, bits.Len32(top))
		}
		for i := lo; i < hi; i++ {
			s[i], p[i], o[i] = dict.ID(keys[i]>>32), v, dict.ID(keys[i])
		}
	}
	tt := store.NewTable("TT", "s", "p", "o")
	tt.Data[0], tt.Data[1], tt.Data[2] = s, p, o
	// The (p,s,o) sort makes p the detected sort column: TT-mode scans
	// binary search the predicate run instead of reading the whole table.
	tt.Finalize()
	return tt
}

// radixSort sorts keys, each s<<32|o with s and o below 1<<width, by a
// stable LSD radix sort on 11-bit digits: those of o, then those of s. buf
// is scratch at least as long as keys.
func radixSort(keys, buf []uint64, width int) {
	const digit = 11
	var count [1 << digit]int
	src, dst := keys, buf[:len(keys)]
	for _, base := range [2]int{0, 32} {
		for shift := base; shift < base+width; shift += digit {
			clear(count[:])
			for _, k := range src {
				count[k>>shift&(1<<digit-1)]++
			}
			sum := 0
			for i, c := range count {
				count[i], sum = sum, sum+c
			}
			for _, k := range src {
				d := k >> shift & (1<<digit - 1)
				dst[count[d]] = k
				count[d]++
			}
			src, dst = dst, src
		}
	}
	// Both halves take the same number of passes, an even total, so the
	// last pass wrote into keys.
}

// BuildEncoded constructs a dataset from an already-encoded triples table,
// sorted by (p, s, o) and holding only IDs of d.
func BuildEncoded(tt *store.Table, d *dict.Dict, opts Options) *Dataset {
	// A reduction qualifies only with fewer rows than its VP table, so
	// every threshold above 1 keeps what 1 keeps. Folding those, and
	// non-positive or NaN values, to 1 leaves a finite threshold that the
	// manifest can record.
	if !(opts.Threshold > 0 && opts.Threshold < 1) {
		opts.Threshold = 1.0
	}
	ds := &Dataset{
		Dict:    d,
		TT:      tt,
		VP:      make(map[dict.ID]*store.Table),
		ExtVP:   make(map[ExtKey]*store.Table),
		ExtBits: make(map[ExtKey]*BitTable),
		Info:    make(map[ExtKey]TableInfo),
		Options: opts,
	}
	ds.buildVP()
	if opts.BuildExtVP {
		ds.buildExtVP()
	}
	if opts.BuildPT {
		ds.PT = buildPT(ds)
	}
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
		// records s as the sort column plus the distinct counts.
		t.Finalize()
		ds.VP[p] = t
		// TT's p order appends the predicates ascending.
		ds.Predicates = append(ds.Predicates, p)
		i = j
	}
}

// termPreds indexes which predicates each term occurs with: for term v,
// subj[subjOff[v]:subjOff[v+1]] lists, ascending, the positions in
// Predicates of the predicates that have v as a subject, and obj those that
// have it as an object. It holds at most 2|G| entries however many
// predicates there are.
type termPreds struct {
	subjOff, objOff []int
	subj, obj       []int32
}

func newTermPreds(ds *Dataset) *termPreds {
	tp := &termPreds{}
	tp.subjOff, tp.subj = ds.postings(0)
	tp.objOff, tp.obj = ds.postings(1)
	return tp
}

// postings returns the CSR over the dictionary's IDs of the predicates
// whose VP column col holds each term, one entry per (term, predicate).
func (ds *Dataset) postings(col int) (off []int, vals []int32) {
	n := ds.Dict.Len()
	off = make([]int, n+1)
	last := make([]int32, n) // 1 + the position of the predicate v was last counted for
	for j, p := range ds.Predicates {
		for _, v := range ds.VP[p].Data[col] {
			if last[v] != int32(j+1) {
				last[v] = int32(j + 1)
				off[v+1]++
			}
		}
	}
	for v := range n {
		off[v+1] += off[v]
	}
	vals = make([]int32, off[n])
	clear(last)
	// off[v] serves as v's fill cursor, which leaves it at v's end, the
	// start of v+1: shifting by one restores the starts.
	for j, p := range ds.Predicates {
		for _, v := range ds.VP[p].Data[col] {
			if last[v] != int32(j+1) {
				last[v] = int32(j + 1)
				vals[off[v]] = int32(j)
				off[v]++
			}
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, vals
}

// marks walks vp = VP[P1] once and returns its candidate selections: slot
// k*len(Predicates)+j marks the rows of vp whose kinds[k] join value occurs
// in the matching column of VP[Predicates[j]]. A nil slot marks no row.
func (tp *termPreds) marks(vp *store.Table, kinds []Correlation, np int) []*bitvec.Bitset {
	sels := make([]*bitvec.Bitset, len(kinds)*np)
	n := vp.NumRows()
	for i, s := range vp.Data[0] {
		o := vp.Data[1][i]
		for k, kind := range kinds {
			v, off, list := s, tp.subjOff, tp.subj
			if kind == OS || kind == OO {
				v = o
			}
			if kind == SO || kind == OO {
				off, list = tp.objOff, tp.obj
			}
			for _, j := range list[off[v]:off[v+1]] {
				sel := &sels[k*np+int(j)]
				if *sel == nil {
					*sel = bitvec.New(n)
				}
				(*sel).Set(i)
			}
		}
	}
	return sels
}

// buildExtVP computes the semi-join reductions VP[P1] ⋉ VP[P2] of every
// predicate pair for the SS, OS and SO correlations (and OO when
// requested), in parallel. This is the preprocessing the paper performs at
// load time (Sec. 5.2). One pass over TT indexes the predicates of every
// term; a worker then takes one P1 and walks VP[P1] once, marking each row
// in the candidates of the predicates its subject and object occur with.
// Every candidate's statistics land in Info; the qualifying reductions are
// kept as bits, or as rows with Options.Materialize. The index and the
// candidate scratch are dropped when buildExtVP returns.
func (ds *Dataset) buildExtVP() {
	kinds := []Correlation{SS, OS, SO}
	if ds.Options.BuildOO {
		kinds = append(kinds, OO)
	}
	tp := newTermPreds(ds)
	preds := ds.Predicates
	// Largest VP first, so the last P1 a worker takes is a short one.
	order := slices.Clone(preds)
	slices.SortStableFunc(order, func(a, b dict.ID) int {
		return cmp.Compare(ds.VP[b].NumRows(), ds.VP[a].NumRows())
	})
	next := make(chan dict.ID, len(order))
	for _, p := range order {
		next <- p
	}
	close(next)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(preds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := bitvec.New(ds.Dict.Len()) // newBitTable's scratch
			for p1 := range next {
				n := ds.VP[p1].NumRows()
				sels := tp.marks(ds.VP[p1], kinds, len(preds))
				info := make(map[ExtKey]TableInfo)
				tables := make(map[ExtKey]*store.Table)
				bitTables := make(map[ExtKey]*BitTable)
				for k, kind := range kinds {
					for j, p2 := range preds {
						if p1 == p2 && (kind == SS || kind == OO) {
							continue // SS and OO of a predicate with itself reduce to VP
						}
						key := ExtKey{kind, p1, p2}
						sel, rows := sels[k*len(preds)+j], 0
						if sel != nil {
							rows = sel.Count()
						}
						ti := tableInfo(rows, n, ds.Options.Threshold)
						switch {
						case ti.SF == 1: // not recorded: VP is used
							continue
						case !ti.Materialized:
						case ds.Options.Materialize:
							tables[key] = ds.materialize(key, sel, rows)
						default:
							bitTables[key] = ds.newBitTable(key, sel, seen)
						}
						info[key] = ti
					}
				}
				mu.Lock()
				maps.Copy(ds.Info, info)
				maps.Copy(ds.ExtVP, tables)
				maps.Copy(ds.ExtBits, bitTables)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
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

// BitTable is one ExtVP reduction in bit-vector form: bit i of Bits marks
// row i of VP[key.P1]. Beside the bits it carries what the planner reads of
// a row copy beyond its row count (which Info holds) — its name and the
// distinct counts of its s and o columns — computed once when the
// reduction is built or loaded, so a plan over bits equals the plan over
// the same reduction's rows.
type BitTable struct {
	// Name is the reduction's name as plans report it, ExtVPName plus
	// "[bits]".
	Name string
	Bits *bitvec.Bitset
	// DistinctS and DistinctO count the distinct subjects and objects of
	// the selected rows.
	DistinctS, DistinctO int
}

// DistinctOf returns the selected rows' distinct count of column "s" or
// "o", and 0 (unknown) for any other name, like store.Table.DistinctOf.
func (bt *BitTable) DistinctOf(col string) int {
	switch col {
	case "s":
		return bt.DistinctS
	case "o":
		return bt.DistinctO
	}
	return 0
}

// newBitTable wraps sel, the reduction of VP[key.P1], into a BitTable. seen
// is scratch over the dictionary's IDs; it must be clear on entry and is
// clear again on return.
func (ds *Dataset) newBitTable(key ExtKey, sel, seen *bitvec.Bitset) *BitTable {
	vp := ds.VP[key.P1]
	scol, ocol := vp.Data[0], vp.Data[1]
	bt := &BitTable{Name: ExtVPName(ds.Dict, key) + "[bits]", Bits: sel}
	// VP is sorted by s, so the selected rows' distinct subjects are their
	// value runs; objects are collected in seen.
	prev := -1
	for w, word := range sel.Words() {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if s := int(scol[i]); s != prev {
				bt.DistinctS++
				prev = s
			}
			if o := int(ocol[i]); !seen.Get(o) {
				seen.Set(o)
				bt.DistinctO++
			}
		}
	}
	seen.Reset()
	return bt
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
	// (0 when built with Options.Materialize).
	ExtBitBytes int
}

// Sizes computes the dataset's size summary from the statistics.
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
	for _, bt := range ds.ExtBits {
		s.ExtBitBytes += bt.Bits.Bytes()
	}
	return s
}
