package layout

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/dict"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

// persisted metadata: the dictionary lives in dict.txt, tables in *.tbl via
// store.Dir, and meta.json records the schema (which predicates and ExtVP
// reductions exist, with their statistics).

type metaFile struct {
	Threshold  float64     `json:"threshold"`
	Predicates []string    `json:"predicates"` // predicate terms
	Ext        []metaEntry `json:"ext"`
}

type metaEntry struct {
	Kind         string  `json:"kind"`
	P1           string  `json:"p1"`
	P2           string  `json:"p2"`
	Rows         int     `json:"rows"`
	SF           float64 `json:"sf"`
	Materialized bool    `json:"materialized"`
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
	d, err := store.Open(dir)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "dict.txt"))
	if err != nil {
		return err
	}
	if err := ds.Dict.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	if _, err := d.SaveTable(ds.TT, 1); err != nil {
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
		info := ds.Info[key]
		entry := metaEntry{
			Kind:         key.Kind.String(),
			P1:           string(ds.Dict.Decode(key.P1)),
			P2:           string(ds.Dict.Decode(key.P2)),
			Rows:         info.Rows,
			SF:           info.SF,
			Materialized: info.Materialized,
		}
		if bits, ok := ds.ExtBits[key]; ok {
			entry.BitVec = true
			if _, err := d.SaveTable(bitsToTable(ExtVPName(ds.Dict, key)+"#bits", bits), info.SF); err != nil {
				return err
			}
		} else if tbl := ds.ExtVP[key]; tbl != nil {
			if _, err := d.SaveTable(tbl, info.SF); err != nil {
				return err
			}
		} else if info.Materialized {
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
		if _, err := d.SaveTable(ds.rebuild(key, sets), ds.Info[key].SF); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(&meta, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644); err != nil {
		return err
	}
	return d.Flush()
}

// Load reads a dataset previously written by Save, slicing VP out of TT
// exactly as Build does. Statistics in meta.json that disagree with the
// tables report an error wrapping store.ErrCorrupt. The property table is
// rebuilt from the VP tables when withPT is true.
func Load(dir string, withPT bool) (*Dataset, error) {
	f, err := os.Open(filepath.Join(dir, "dict.txt"))
	if err != nil {
		return nil, err
	}
	dc, err := dict.Load(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var meta metaFile
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, corrupt("meta.json: %v", err)
	}
	d, err := store.Open(dir)
	if err != nil {
		return nil, err
	}

	tt, err := d.LoadTable("TT")
	if err != nil {
		return nil, err
	}
	// buildVP decodes TT's predicates and the semi-join bitsets span the
	// dictionary's IDs, so an ID past its end (a truncated dict.txt) must
	// stop here as an error.
	for _, col := range tt.Data {
		for _, v := range col {
			if int(v) >= dc.Len() {
				return nil, corrupt("TT holds ID %d, dict.txt has %d terms", v, dc.Len())
			}
		}
	}
	ds := newDataset(dc, tt, meta.Threshold)
	if len(meta.Predicates) != len(ds.Predicates) {
		return nil, corrupt("meta.json lists %d predicates, TT holds %d", len(meta.Predicates), len(ds.Predicates))
	}
	for _, pterm := range meta.Predicates {
		if ds.VP[dc.Lookup(rdf.Term(pterm))] == nil {
			return nil, corrupt("predicate %q has no triples", pterm)
		}
	}
	for _, entry := range meta.Ext {
		kind, err := corrFromString(entry.Kind)
		if err != nil {
			return nil, err
		}
		key := ExtKey{
			Kind: kind,
			P1:   dc.Lookup(rdf.Term(entry.P1)),
			P2:   dc.Lookup(rdf.Term(entry.P2)),
		}
		vp := ds.VP[key.P1]
		if vp == nil || ds.VP[key.P2] == nil {
			return nil, corrupt("ExtVP entry %s %q|%q references an unknown predicate", entry.Kind, entry.P1, entry.P2)
		}
		ds.Info[key] = TableInfo{Rows: entry.Rows, SF: entry.SF, Materialized: entry.Materialized}
		rows := entry.Rows // an entry without a table has nothing to check
		switch {
		case entry.BitVec:
			tbl, err := d.LoadTable(ExtVPName(dc, key) + "#bits")
			if err != nil {
				return nil, err
			}
			if ds.ExtBits[key], err = tableToBits(tbl, vp.NumRows()); err != nil {
				return nil, err
			}
			rows = ds.ExtBits[key].Count()
		case entry.Materialized:
			tbl, err := d.LoadTable(ExtVPName(dc, key))
			if err != nil {
				return nil, err
			}
			ds.ExtVP[key] = tbl
			rows = tbl.NumRows()
		}
		if rows != entry.Rows {
			return nil, corrupt("%s holds %d rows, meta.json says %d", ExtVPName(dc, key), rows, entry.Rows)
		}
	}
	if withPT {
		ds.PT = buildPT(ds)
	}
	return ds, nil
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

// DiskBytes sums the persisted size of all tables in dir.
func DiskBytes(dir string) (int64, error) {
	d, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	return d.TotalBytes(), nil
}
