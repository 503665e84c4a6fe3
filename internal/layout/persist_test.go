package layout

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"s2rdf/internal/bitvec"
	"s2rdf/internal/rdf"
	"s2rdf/internal/store"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != ds.NumTriples() {
		t.Errorf("triples = %d, want %d", got.NumTriples(), ds.NumTriples())
	}
	if len(got.VP) != len(ds.VP) || len(got.ExtVP) != len(ds.ExtVP) {
		t.Errorf("tables: VP %d/%d, ExtVP %d/%d",
			len(got.VP), len(ds.VP), len(got.ExtVP), len(ds.ExtVP))
	}
	// Statistics must survive, including empties.
	for key, info := range ds.Info {
		gi := got.ExtInfo(key)
		if gi.Rows != info.Rows || gi.SF != info.SF || gi.Materialized != info.Materialized {
			t.Errorf("%v: info %+v, want %+v", key, gi, info)
		}
	}
	// Table contents must be identical.
	for key, tbl := range ds.ExtVP {
		g := got.ExtVP[key]
		if g == nil || g.NumRows() != tbl.NumRows() {
			t.Fatalf("%v: table missing or wrong size", key)
		}
		for c := range tbl.Data {
			for r := range tbl.Data[c] {
				if g.Data[c][r] != tbl.Data[c][r] {
					t.Fatalf("%v: cell (%d,%d) differs", key, c, r)
				}
			}
		}
	}
}

// TestSaveLoadScanStatistics asserts the scan statistics the layout
// builders compute — sort column, zone maps, distinct counts — survive a
// Save/Load round trip on every kind of table (TT, VP, ExtVP).
func TestSaveLoadScanStatistics(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want, g *store.Table) {
		t.Helper()
		if g.SortCol != want.SortCol {
			t.Errorf("%s: SortCol = %d, want %d", name, g.SortCol, want.SortCol)
		}
		if !reflect.DeepEqual(g.Meta, want.Meta) {
			t.Errorf("%s: column statistics differ after round trip", name)
		}
	}
	if ds.TT.SortColName() != "p" {
		t.Fatalf("TT sort column = %q, want p", ds.TT.SortColName())
	}
	check("TT", ds.TT, got.TT)
	for p, tbl := range ds.VP {
		if tbl.SortColName() != "s" {
			t.Fatalf("%s sort column = %q, want s", tbl.Name, tbl.SortColName())
		}
		check(tbl.Name, tbl, got.VP[p])
	}
	for key, tbl := range ds.ExtVP {
		if tbl.SortColName() != "s" {
			t.Fatalf("%s sort column = %q, want s", tbl.Name, tbl.SortColName())
		}
		check(tbl.Name, tbl, got.ExtVP[key])
	}
	// Distinct counts are the planner's NDV input; spot-check one VP table
	// against a direct count.
	for _, tbl := range ds.VP {
		seen := map[uint32]struct{}{}
		for _, v := range tbl.Data[0] {
			seen[uint32(v)] = struct{}{}
		}
		if tbl.DistinctOf("s") != len(seen) {
			t.Errorf("%s: NDV(s) = %d, want %d", tbl.Name, tbl.DistinctOf("s"), len(seen))
		}
	}
}

func TestSaveLoadBitVectors(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.BitVectors = true
	ds := Build(g1(), opts)
	if len(ds.ExtBits) == 0 {
		t.Fatal("no bitsets built")
	}
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ExtBits) != len(ds.ExtBits) {
		t.Fatalf("bitsets = %d, want %d", len(got.ExtBits), len(ds.ExtBits))
	}
	for key, bits := range ds.ExtBits {
		g := got.ExtBits[key]
		if g == nil || g.Len() != bits.Len() || g.Count() != bits.Count() {
			t.Fatalf("%v: bitset mismatch", key)
		}
		for i := 0; i < bits.Len(); i++ {
			if g.Get(i) != bits.Get(i) {
				t.Fatalf("%v: bit %d differs", key, i)
			}
		}
	}
}

func TestSaveLoadWithPT(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.PT == nil {
		t.Fatal("PT not rebuilt on load")
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope"), false); err == nil {
		t.Error("expected error for missing store")
	}
}

func TestLoadCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	if err := osWrite(filepath.Join(dir, "meta.json"), "{broken"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); err == nil {
		t.Error("expected corrupt-meta error")
	}
}

func TestDiskBytesNonzero(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	n, err := DiskBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("DiskBytes = 0")
	}
}

func TestBitsTableRoundTripUnit(t *testing.T) {
	b := bitsFixture()
	tbl := bitsToTable("x#bits", b)
	got, err := tableToBits(tbl, b.Len())
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != b.Count() {
		t.Fatalf("count = %d, want %d", got.Count(), b.Count())
	}
	for i := 0; i < b.Len(); i++ {
		if got.Get(i) != b.Get(i) {
			t.Fatalf("bit %d differs", i)
		}
	}
}

func TestCorrFromString(t *testing.T) {
	for _, s := range []string{"SS", "OS", "SO", "OO"} {
		c, err := corrFromString(s)
		if err != nil || c.String() != s {
			t.Errorf("corrFromString(%q) = %v, %v", s, c, err)
		}
	}
	if _, err := corrFromString("XX"); err == nil {
		t.Error("expected error for unknown correlation")
	}
}

// TestLoadMetaMismatch: meta.json statistics or a dictionary that disagree
// with the tables beside them are corruption, reported as store.ErrCorrupt.
func TestLoadMetaMismatch(t *testing.T) {
	cases := map[string]struct {
		opts Options
		edit func(t *testing.T, dir string, ds *Dataset, meta *metaFile)
	}{
		"edited rows": {DefaultOptions(), func(t *testing.T, dir string, ds *Dataset, meta *metaFile) {
			for key := range ds.ExtVP {
				for i, e := range meta.Ext {
					if e.Kind == key.Kind.String() && e.P1 == string(ds.Dict.Decode(key.P1)) && e.P2 == string(ds.Dict.Decode(key.P2)) {
						meta.Ext[i].Rows++
						return
					}
				}
			}
			t.Fatal("no materialized entry")
		}},
		"truncated bits": {Options{BuildExtVP: true, BitVectors: true}, func(t *testing.T, dir string, ds *Dataset, meta *metaFile) {
			for key := range ds.ExtBits {
				if err := store.Open(dir).SaveTable(store.NewTable(ExtVPName(ds.Dict, key)+"#bits", "lo", "hi")); err != nil {
					t.Fatal(err)
				}
				break
			}
		}},
		"unknown predicate": {DefaultOptions(), func(t *testing.T, dir string, ds *Dataset, meta *metaFile) {
			// A term of the dictionary that is no predicate: TT has no run.
			meta.Predicates[0] = string(rdf.NewIRI("A"))
		}},
		"truncated dictionary": {DefaultOptions(), func(t *testing.T, dir string, ds *Dataset, meta *metaFile) {
			raw := readFramed(t, dir, dictName)
			// Drop the last term: TT still holds its ID.
			last := bytes.LastIndexByte(raw[:len(raw)-1], '\n')
			writeFramed(t, dir, dictName, raw[:last+1])
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ds := Build(g1(), c.opts)
			if err := Save(ds, dir); err != nil {
				t.Fatal(err)
			}
			var meta metaFile
			if err := json.Unmarshal(readFramed(t, dir, metaName), &meta); err != nil {
				t.Fatal(err)
			}
			c.edit(t, dir, ds, &meta)
			raw, err := json.Marshal(&meta)
			if err != nil {
				t.Fatal(err)
			}
			writeFramed(t, dir, metaName, raw)
			if _, err := Load(dir, false); !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Load error = %v, want store.ErrCorrupt", err)
			}
		})
	}
}

// readFramed returns the payload of the framed file name in dir.
func readFramed(t *testing.T, dir, name string) []byte {
	t.Helper()
	var raw []byte
	err := store.Open(dir).ReadFile(name, func(br *bufio.Reader) (err error) {
		raw, err = io.ReadAll(br)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeFramed replaces the framed file name in dir with payload.
func writeFramed(t *testing.T, dir, name string, payload []byte) {
	t.Helper()
	err := store.Open(dir).WriteFile(name, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoadCorruptMetaBitFlips and TestLoadCorruptDictBitFlips: a flipped
// bit anywhere in meta.json or the dictionary fails Load with
// store.ErrCorrupt and no dataset — never a store with wrong statistics or
// wrong terms.
func TestLoadCorruptMetaBitFlips(t *testing.T) { testLoadBitFlips(t, metaName) }

func TestLoadCorruptDictBitFlips(t *testing.T) { testLoadBitFlips(t, dictName) }

func testLoadBitFlips(t *testing.T, name string) {
	bitVectors := DefaultOptions()
	bitVectors.BitVectors = true
	for _, opts := range []Options{DefaultOptions(), bitVectors} {
		dir := t.TempDir()
		if err := Save(Build(g1(), opts), dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			mut := bytes.Clone(raw)
			mut[i] ^= 1 << (i % 8)
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			ds, err := Load(dir, false)
			if !errors.Is(err, store.ErrCorrupt) || ds != nil {
				t.Fatalf("BitVectors=%v, %s byte %d flipped: Load = %v, %v; want store.ErrCorrupt and no dataset",
					opts.BitVectors, name, i, ds != nil, err)
			}
		}
	}
}

// TestLoadCorruptUnframedMeta: a plain-JSON meta.json, as stores saved
// before every file was framed wrote it, is corruption; re-save the store.
func TestLoadCorruptUnframedMeta(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Kind         string  `json:"kind"`
		P1           string  `json:"p1"`
		P2           string  `json:"p2"`
		Rows         int     `json:"rows"`
		SF           float64 `json:"sf"`
		Materialized bool    `json:"materialized"`
	}
	old := struct {
		Threshold  float64  `json:"threshold"`
		Predicates []string `json:"predicates"`
		Ext        []entry  `json:"ext"`
	}{Threshold: ds.Threshold}
	for _, p := range ds.Predicates {
		old.Predicates = append(old.Predicates, string(ds.Dict.Decode(p)))
	}
	for key, info := range ds.Info {
		old.Ext = append(old.Ext, entry{key.Kind.String(), string(ds.Dict.Decode(key.P1)),
			string(ds.Dict.Decode(key.P2)), info.Rows, info.SF, info.Materialized})
	}
	raw, err := json.MarshalIndent(&old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(dir, false); !errors.Is(err, store.ErrCorrupt) || got != nil {
		t.Fatalf("Load = %v, %v; want store.ErrCorrupt and no dataset", got != nil, err)
	}
}

// TestDiskBytesIgnoresStaleTables: a store saved over an earlier one counts
// only its own tables, as if saved into an empty directory.
func TestDiskBytesIgnoresStaleTables(t *testing.T) {
	vpOnly := Build(g1(), Options{})
	fresh := t.TempDir()
	if err := Save(vpOnly, fresh); err != nil {
		t.Fatal(err)
	}
	want, err := DiskBytes(fresh)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(Build(g1(), DefaultOptions()), dir); err != nil {
		t.Fatal(err)
	}
	if err := Save(vpOnly, dir); err != nil {
		t.Fatal(err)
	}
	got, err := DiskBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("DiskBytes over an earlier store = %d, want %d as in a fresh directory", got, want)
	}
}

// TestSaveMetaDeterministic: saving one dataset writes the same meta.json
// bytes every time.
func TestSaveMetaDeterministic(t *testing.T) {
	ds := Build(randomGraph(1), Options{BuildExtVP: true, BuildOO: true})
	var first []byte
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		if err := Save(ds, dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("save %d wrote different meta.json bytes", i)
		}
	}
}

// TestLoadIgnoresStaleVPFiles: VP is always sliced from TT, so a VP table
// left in the directory by an older store format is never read.
func TestLoadIgnoresStaleVPFiles(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	f := pid(ds, "follows")
	stale := store.NewTable(VPName(ds.Dict, f), "s", "o")
	stale.Append(pid(ds, "likes"), pid(ds, "likes"))
	if err := store.Open(dir).SaveTable(stale); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for p, tbl := range ds.VP {
		if !reflect.DeepEqual(got.VP[p].Data, tbl.Data) {
			t.Errorf("%s: loaded %v, want TT's run %v", tbl.Name, got.VP[p].Data, tbl.Data)
		}
	}
}

// TestLoadVPViewsTT: every loaded VP column is a subslice of TT, so the
// base data is held once.
func TestLoadVPViewsTT(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Build(randomGraph(2), DefaultOptions()), dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	ps := got.TT.Data[1]
	for i := 0; i < len(ps); {
		vp := got.VP[ps[i]]
		if &vp.Data[0][0] != &got.TT.Data[0][i] || &vp.Data[1][0] != &got.TT.Data[2][i] {
			t.Errorf("%s is not a view of TT at row %d", vp.Name, i)
		}
		i += vp.NumRows()
	}
}

// TestSaveWritesNoVPTables: a saved store's directory holds no VP table.
func TestSaveWritesNoVPTables(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Build(g1(), DefaultOptions()), dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "VP-") {
			t.Errorf("saved VP table %s", e.Name())
		}
	}
}

func osWrite(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// bitsFixture builds a bitset spanning multiple words with high bits set,
// exercising the uint64 split in bitsToTable.
func bitsFixture() *bitvec.Bitset {
	b := bitvec.New(150)
	for _, i := range []int{0, 31, 32, 63, 64, 95, 96, 127, 128, 149} {
		b.Set(i)
	}
	return b
}
