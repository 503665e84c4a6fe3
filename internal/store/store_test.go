package store

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"s2rdf/internal/dict"
)

func TestTableAppendAndAccess(t *testing.T) {
	tbl := NewTable("t", "s", "o")
	tbl.Append(1, 2)
	tbl.Append(3, 4)
	if tbl.NumRows() != 2 || tbl.NumCols() != 2 {
		t.Fatalf("dims = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.Col("o"); got[1] != 4 {
		t.Errorf("Col(o)[1] = %d", got[1])
	}
	if tbl.Col("missing") != nil {
		t.Error("Col(missing) != nil")
	}
	if tbl.ColIndex("s") != 0 || tbl.ColIndex("o") != 1 || tbl.ColIndex("x") != -1 {
		t.Error("ColIndex wrong")
	}
	row := tbl.Row(1)
	if row[0] != 3 || row[1] != 4 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	NewTable("t", "s", "o").Append(1)
}

func TestEmptyTable(t *testing.T) {
	tbl := NewTable("empty")
	if tbl.NumRows() != 0 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tbl := NewTable("rt", "s", "p", "o")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		tbl.Append(dict.ID(rng.Intn(50)), dict.ID(rng.Intn(5)), dict.ID(rng.Intn(1000)))
	}
	var buf bytes.Buffer
	n, err := WriteTable(&buf, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tbl.NumRows() || got.NumCols() != tbl.NumCols() {
		t.Fatalf("dims %dx%d, want %dx%d", got.NumRows(), got.NumCols(), tbl.NumRows(), tbl.NumCols())
	}
	for c := range tbl.Data {
		for r := range tbl.Data[c] {
			if got.Data[c][r] != tbl.Data[c][r] {
				t.Fatalf("cell (%d,%d) = %d, want %d", c, r, got.Data[c][r], tbl.Data[c][r])
			}
		}
	}
}

func TestRLECompressesRuns(t *testing.T) {
	// A sorted predicate column compresses far better than random data.
	sorted := NewTable("sorted", "p")
	random := NewTable("random", "p")
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		sorted.Append(dict.ID(i / 1000)) // 10 long runs
		random.Append(dict.ID(rng.Uint32()))
	}
	var bs, br bytes.Buffer
	if _, err := WriteTable(&bs, sorted); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTable(&br, random); err != nil {
		t.Fatal(err)
	}
	if bs.Len()*10 > br.Len() {
		t.Errorf("RLE ineffective: sorted %dB vs random %dB", bs.Len(), br.Len())
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	if _, err := ReadTable(bytes.NewReader([]byte("not a table"))); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := ReadTable(bytes.NewReader(nil)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestDirSaveLoad(t *testing.T) {
	dir := t.TempDir()
	tbl := NewTable("VP:follows", "s", "o")
	tbl.Append(1, 2)
	tbl.Append(3, 4)
	if err := Open(dir).SaveTable(tbl); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify the data survives.
	d2 := Open(dir)
	got, err := d2.LoadTable("VP:follows")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Col("o")[1] != 4 {
		t.Errorf("loaded table wrong: %+v", got)
	}
	n, err := d2.TableBytes("VP:follows")
	if err != nil || n == 0 {
		t.Errorf("TableBytes = %d, %v", n, err)
	}
}

func TestDirTableNameEscaping(t *testing.T) {
	d := Open(t.TempDir())
	name := "ExtVP:OS:a/b|c"
	tbl := NewTable(name, "s", "o")
	tbl.Append(1, 1)
	if err := d.SaveTable(tbl); err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadTable(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != name {
		t.Errorf("Name = %q, want %q", got.Name, name)
	}
	if tableFile(name) == name+".tbl" {
		t.Error("path not escaped")
	}
}

func TestFormatRoundTripProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		tbl := NewTable("q", "c")
		for _, v := range vals {
			tbl.Append(dict.ID(v))
		}
		var buf bytes.Buffer
		if _, err := WriteTable(&buf, tbl); err != nil {
			return false
		}
		got, err := ReadTable(&buf)
		if err != nil || got.NumRows() != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Data[0][i] != dict.ID(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
