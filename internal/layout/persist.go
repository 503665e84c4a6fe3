package layout

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

// A saved store is one store.Dir: the dictionary in dict.txt, TT and the
// qualifying ExtVP reductions in *.tbl files, and the schema in meta.json
// (the SF threshold, the predicates, and every ExtVP candidate's row
// count). All of them go through the store's checksummed framing.
const (
	dictName = "dict.txt"
	metaName = "meta.json"
)

type metaFile struct {
	Threshold  float64     `json:"threshold"`
	Predicates []string    `json:"predicates"` // predicate terms
	Ext        []metaEntry `json:"ext"`
}

// metaEntry records one ExtVP candidate. Its SF and whether it is
// materialized follow from Rows, |VP_P1| and the threshold (tableInfo).
type metaEntry struct {
	Kind string `json:"kind"`
	P1   string `json:"p1"`
	P2   string `json:"p2"`
	Rows int    `json:"rows"`
	// BitVec marks reductions stored as bit vectors (Options.BitVectors);
	// the bits live in a companion "...#bits" table of split uint64 words.
	BitVec bool `json:"bitvec,omitempty"`
}

func corrFromString(s string) (Correlation, error) {
	if c := slices.Index(correlationNames[:], s); c >= 0 {
		return Correlation(c), nil
	}
	return 0, corrupt("unknown correlation %q", s)
}

// corrupt reports a store directory whose parts disagree with each other.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("layout: "+format+": %w", append(args, store.ErrCorrupt)...)
}

// Save persists the dataset (dictionary, TT, every qualifying ExtVP
// reduction and all statistics) to dir. VP is not written: it is a view of
// TT, which Load slices again.
func Save(ds *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d := store.Open(dir)
	if err := d.WriteFile(dictName, ds.Dict.Save); err != nil {
		return err
	}
	if err := d.SaveTable(ds.TT); err != nil {
		return err
	}
	meta := metaFile{Threshold: ds.Threshold}
	for _, p := range ds.Predicates {
		meta.Predicates = append(meta.Predicates, string(ds.Dict.Decode(p)))
	}
	keys := make([]ExtKey, 0, len(ds.Info))
	for key := range ds.Info {
		keys = append(keys, key)
	}
	// Sorted, so that one dataset always writes the same meta.json bytes.
	slices.SortFunc(keys, func(a, b ExtKey) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.P1, b.P1), cmp.Compare(a.P2, b.P2))
	})
	var unbuilt []ExtKey
	for _, key := range keys {
		entry := metaEntry{
			Kind: key.Kind.String(),
			P1:   string(ds.Dict.Decode(key.P1)),
			P2:   string(ds.Dict.Decode(key.P2)),
			Rows: ds.Info[key].Rows,
		}
		if bits, ok := ds.ExtBits[key]; ok {
			entry.BitVec = true
			if err := d.SaveTable(bitsToTable(ExtVPName(ds.Dict, key)+"#bits", bits)); err != nil {
				return err
			}
		} else if tbl := ds.ExtVP[key]; tbl != nil {
			if err := d.SaveTable(tbl); err != nil {
				return err
			}
		} else if ds.Info[key].Materialized {
			unbuilt = append(unbuilt, key)
		}
		meta.Ext = append(meta.Ext, entry)
	}
	// A lazy store holds no rows in the dataset: build each qualifying
	// reduction just to write it, grouped by P2 so the sets fill once per
	// predicate, and keep none of them.
	slices.SortStableFunc(unbuilt, func(a, b ExtKey) int { return cmp.Compare(a.P2, b.P2) })
	var sets *semiSets
	for _, key := range unbuilt {
		if sets == nil {
			sets = newSemiSets(ds.Dict.Len())
		}
		if err := d.SaveTable(ds.rebuild(key, sets)); err != nil {
			return err
		}
	}
	return d.WriteFile(metaName, func(w io.Writer) error {
		raw, err := json.MarshalIndent(&meta, "", " ")
		if err != nil {
			return err
		}
		_, err = w.Write(raw)
		return err
	})
}

// Load reads a dataset previously written by Save, slicing VP out of TT
// exactly as Build does. A damaged file, or statistics in meta.json that
// disagree with the tables, report an error wrapping store.ErrCorrupt. The
// property table is rebuilt from the VP tables when withPT is true.
func Load(dir string, withPT bool) (*Dataset, error) {
	d, ds, files, err := readSchema(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		tbl, err := d.LoadTable(f.table)
		if err != nil {
			return nil, err
		}
		rows := tbl.NumRows()
		if f.bits {
			bits, err := tableToBits(tbl, ds.VP[f.key.P1].NumRows())
			if err != nil {
				return nil, err
			}
			ds.ExtBits[f.key], rows = bits, bits.Count()
		} else {
			ds.ExtVP[f.key] = tbl
		}
		if want := ds.Info[f.key].Rows; rows != want {
			return nil, corrupt("%s holds %d rows, meta.json says %d", f.table, rows, want)
		}
	}
	if withPT {
		ds.PT = buildPT(ds)
	}
	return ds, nil
}

// extFile is one ExtVP table file meta.json references.
type extFile struct {
	key   ExtKey
	table string // the store table name
	bits  bool   // a "#bits" table of a bit-vector reduction
}

// readSchema reads everything of dir but the ExtVP tables: the dictionary,
// meta.json and TT. It returns the dataset over TT with every ExtVP
// candidate's statistics in Info, and the ExtVP table files meta.json
// references.
func readSchema(dir string) (*store.Dir, *Dataset, []extFile, error) {
	d := store.Open(dir)
	var dc *dict.Dict
	err := d.ReadFile(dictName, func(br *bufio.Reader) (err error) {
		dc, err = dict.Load(br)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var meta metaFile
	err = d.ReadFile(metaName, func(br *bufio.Reader) error {
		raw, err := io.ReadAll(br)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &meta); err != nil {
			return corrupt("%v", err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tt, err := d.LoadTable("TT")
	if err != nil {
		return nil, nil, nil, err
	}
	// buildVP decodes TT's predicates and the semi-join bitsets span the
	// dictionary's IDs, so an ID past its end must stop here as an error.
	for _, col := range tt.Data {
		for _, v := range col {
			if int(v) >= dc.Len() {
				return nil, nil, nil, corrupt("TT holds ID %d, %s has %d terms", v, dictName, dc.Len())
			}
		}
	}
	ds := newDataset(dc, tt, meta.Threshold)
	if len(meta.Predicates) != len(ds.Predicates) {
		return nil, nil, nil, corrupt("meta.json lists %d predicates, TT holds %d", len(meta.Predicates), len(ds.Predicates))
	}
	for _, pterm := range meta.Predicates {
		if ds.VP[dc.Lookup(rdf.Term(pterm))] == nil {
			return nil, nil, nil, corrupt("predicate %q has no triples", pterm)
		}
	}
	var files []extFile
	for _, entry := range meta.Ext {
		kind, err := corrFromString(entry.Kind)
		if err != nil {
			return nil, nil, nil, err
		}
		key := ExtKey{
			Kind: kind,
			P1:   dc.Lookup(rdf.Term(entry.P1)),
			P2:   dc.Lookup(rdf.Term(entry.P2)),
		}
		vp := ds.VP[key.P1]
		if vp == nil || ds.VP[key.P2] == nil {
			return nil, nil, nil, corrupt("ExtVP entry %s %q|%q references an unknown predicate", entry.Kind, entry.P1, entry.P2)
		}
		// Only reductions smaller than VP are recorded (SF < 1).
		if entry.Rows < 0 || entry.Rows >= vp.NumRows() {
			return nil, nil, nil, corrupt("%s has %d rows, VP has %d", ExtVPName(dc, key), entry.Rows, vp.NumRows())
		}
		info := tableInfo(entry.Rows, vp.NumRows(), meta.Threshold)
		ds.Info[key] = info
		if info.Materialized {
			name := ExtVPName(dc, key)
			if entry.BitVec {
				name += "#bits"
			}
			files = append(files, extFile{key: key, table: name, bits: entry.BitVec})
		}
	}
	return d, ds, files, nil
}

// bitsToTable encodes a bitset as a two-column table of split uint64 words.
func bitsToTable(name string, bits *bitvec.Bitset) *store.Table {
	t := store.NewTable(name, "lo", "hi")
	for _, w := range bits.Words() {
		t.Append(dict.ID(w), dict.ID(w>>32))
	}
	return t
}

// tableToBits reverses bitsToTable; n is the bitset length (the base VP
// table's row count), which fixes the number of words.
func tableToBits(t *store.Table, n int) (*bitvec.Bitset, error) {
	if t.NumRows() != (n+63)/64 {
		return nil, corrupt("%s has %d words for %d rows", t.Name, t.NumRows(), n)
	}
	words := make([]uint64, t.NumRows())
	for i := range words {
		words[i] = uint64(t.Data[0][i]) | uint64(t.Data[1][i])<<32
	}
	return bitvec.FromWords(n, words), nil
}

// DiskBytes sums the on-disk size of the tables the store in dir
// references: TT and the materialized ExtVP reductions meta.json lists.
// Files left behind by an earlier store in the same directory do not count.
func DiskBytes(dir string) (int64, error) {
	d, _, files, err := readSchema(dir)
	if err != nil {
		return 0, err
	}
	total, err := d.TableBytes("TT")
	if err != nil {
		return 0, err
	}
	for _, f := range files {
		n, err := d.TableBytes(f.table)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
