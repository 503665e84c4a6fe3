package layout

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"s2rdf/internal/store"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), materialized())
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
// builders compute — sort column, distinct counts — survive a
// Save/Load round trip on every kind of table (TT, VP, ExtVP).
func TestSaveLoadScanStatistics(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), materialized())
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
		if !reflect.DeepEqual(g.Distinct, want.Distinct) {
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
	ds := Build(g1(), DefaultOptions())
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
	for key, bt := range ds.ExtBits {
		gt := got.ExtBits[key]
		if gt == nil {
			t.Fatalf("%v: bitset missing", key)
		}
		// Name and distinct counts are derived again at Load.
		if gt.Name != bt.Name || gt.DistinctS != bt.DistinctS || gt.DistinctO != bt.DistinctO {
			t.Fatalf("%v: loaded %s NDV %d/%d, built %s NDV %d/%d", key,
				gt.Name, gt.DistinctS, gt.DistinctO, bt.Name, bt.DistinctS, bt.DistinctO)
		}
		g, bits := gt.Bits, bt.Bits
		if g.Len() != bits.Len() || g.Count() != bits.Count() {
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

// TestLoadCorruptMeta: a manifest overwritten with broken, unframed bytes
// fails Load.
func TestLoadCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	ds := Build(g1(), DefaultOptions())
	if err := Save(ds, dir); err != nil {
		t.Fatal(err)
	}
	if err := osWrite(filepath.Join(dir, manifestName), "{broken"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, false); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("Load error = %v, want store.ErrCorrupt", err)
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

// TestLoadMetaMismatch: a manifest of another format version, or a
// dictionary that TT's IDs run past, is corruption, reported as
// store.ErrCorrupt.
func TestLoadMetaMismatch(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string, m *manifest){
		"unknown version": func(t *testing.T, dir string, m *manifest) {
			m.Version++
		},
		"truncated dictionary": func(t *testing.T, dir string, m *manifest) {
			raw := readFramed(t, dir, dictName)
			// Drop the last term: TT still holds its ID.
			last := bytes.LastIndexByte(raw[:len(raw)-1], '\n')
			writeFramed(t, dir, dictName, raw[:last+1])
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Save(Build(g1(), DefaultOptions()), dir); err != nil {
				t.Fatal(err)
			}
			var m manifest
			if err := json.Unmarshal(readFramed(t, dir, manifestName), &m); err != nil {
				t.Fatal(err)
			}
			edit(t, dir, &m)
			raw, err := json.Marshal(&m)
			if err != nil {
				t.Fatal(err)
			}
			writeFramed(t, dir, manifestName, raw)
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

// TestLoadCorruptMetaBitFlips, TestLoadCorruptDictBitFlips and
// TestLoadCorruptTTBitFlips: a flipped bit anywhere in the manifest, the
// dictionary or TT fails Load with store.ErrCorrupt and no dataset — never
// a store built with other options, wrong terms or wrong triples.
func TestLoadCorruptMetaBitFlips(t *testing.T) { testLoadBitFlips(t, manifestName) }

func TestLoadCorruptDictBitFlips(t *testing.T) { testLoadBitFlips(t, dictName) }

func TestLoadCorruptTTBitFlips(t *testing.T) { testLoadBitFlips(t, "TT.tbl") }

func testLoadBitFlips(t *testing.T, name string) {
	for _, opts := range []Options{materialized(), DefaultOptions()} {
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
				t.Fatalf("Materialize=%v, %s byte %d flipped: Load = %v, %v; want store.ErrCorrupt and no dataset",
					opts.Materialize, name, i, ds != nil, err)
			}
		}
	}
}

// TestLoadCorruptUnframedMeta: a plain-JSON manifest, without the framing
// every store file carries, is corruption.
func TestLoadCorruptUnframedMeta(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Build(g1(), DefaultOptions()), dir); err != nil {
		t.Fatal(err)
	}
	raw := readFramed(t, dir, manifestName)
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(dir, false); !errors.Is(err, store.ErrCorrupt) || got != nil {
		t.Fatalf("Load = %v, %v; want store.ErrCorrupt and no dataset", got != nil, err)
	}
}

// TestLoadEarlierFormat: a directory of the earlier format, which holds
// meta.json and no manifest, fails Load with store.ErrCorrupt and an error
// that says how to re-save it, rather than opening with default options.
func TestLoadEarlierFormat(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Build(g1(), materialized()), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	writeFramed(t, dir, oldMetaName, []byte(`{"threshold":1,"predicates":[],"ext":[]}`))
	got, err := Load(dir, false)
	if !errors.Is(err, store.ErrCorrupt) || got != nil || !strings.Contains(err.Error(), "s2rdf load") {
		t.Fatalf("Load = %v, %v; want store.ErrCorrupt naming `s2rdf load` and no dataset", got != nil, err)
	}
}

// TestLoadPreviousVersion: a directory saved in the previous format, with a
// version 1 manifest and a version 3 TT table, fails Load with
// store.ErrCorrupt and an error that says how to re-save it.
func TestLoadPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	if err := Save(Build(g1(), DefaultOptions()), dir); err != nil {
		t.Fatal(err)
	}
	writeFramed(t, dir, manifestName, []byte(`{"version":1,"threshold":1,"extvp":true,"oo":false,"materialize":false}`+"\n"))
	tt := filepath.Join(dir, "TT.tbl")
	raw, err := os.ReadFile(tt)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:], 3) // the header's version, after the magic
	if err := os.WriteFile(tt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, false)
	if !errors.Is(err, store.ErrCorrupt) || got != nil || !strings.Contains(err.Error(), "re-save the store with `s2rdf load`") {
		t.Fatalf("Load = %v, %v; want store.ErrCorrupt naming `s2rdf load` and no dataset", got != nil, err)
	}
}

// TestDiskBytesIgnoresStaleTables: a store saved over an earlier one counts
// only its own files, as if saved into an empty directory: not the ExtVP
// tables an earlier format wrote beside them.
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
	for _, tbl := range Build(g1(), materialized()).ExtVP {
		if err := store.Open(dir).SaveTable(tbl); err != nil {
			t.Fatal(err)
		}
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

// TestSaveMetaDeterministic: saving one dataset writes the same bytes
// into every file of the store every time.
func TestSaveMetaDeterministic(t *testing.T) {
	ds := Build(randomGraph(1), Options{BuildExtVP: true, BuildOO: true})
	var first map[string][]byte
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		if err := Save(ds, dir); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range []string{dictName, "TT.tbl", manifestName} {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = raw
		}
		if first == nil {
			first = files
		} else if !reflect.DeepEqual(files, first) {
			t.Fatalf("save %d wrote different bytes", i)
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

// TestSaveWritesNoVPTables: a saved store's directory holds the
// dictionary, TT and the manifest, and no VP or ExtVP table.
func TestSaveWritesNoVPTables(t *testing.T) {
	for _, opts := range []Options{DefaultOptions(), materialized(), {BuildExtVP: true, BuildOO: true, BuildPT: true}} {
		dir := t.TempDir()
		if err := Save(Build(g1(), opts), dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"TT.tbl", dictName, manifestName}; !reflect.DeepEqual(names, want) {
			t.Errorf("%+v: saved %v, want %v", opts, names, want)
		}
	}
}

func osWrite(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
