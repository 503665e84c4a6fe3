package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
)

// testTable builds a finalized table whose encoding spans several runs and
// both column kinds (sorted and unsorted).
func testTable(t *testing.T, rows int) *Table {
	t.Helper()
	tbl := NewTable("VP:follows", "s", "o")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		tbl.Append(dict.ID(i/4), dict.ID(rng.Intn(rows)))
	}
	tbl.Finalize()
	return tbl
}

func encodeTable(t *testing.T, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameTable(a, b *Table) bool {
	if a.NumRows() != b.NumRows() || len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Data {
		if a.Cols[c] != b.Cols[c] {
			return false
		}
		for r := range a.Data[c] {
			if a.Data[c][r] != b.Data[c][r] {
				return false
			}
		}
	}
	return true
}

// TestCorruptTableBitFlips is the golden integrity test: flipping any
// single bit of a persisted table either fails with ErrCorrupt or decodes
// to exactly the original data (the flip landed in dead space). It must
// never produce different bindings without an integrity error.
func TestCorruptTableBitFlips(t *testing.T) {
	tbl := testTable(t, 3000)
	enc := encodeTable(t, tbl)

	for off := 0; off < len(enc); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := make([]byte, len(enc))
			copy(mut, enc)
			mut[off] ^= 1 << bit
			got, err := ReadTable(bytes.NewReader(mut))
			if err == nil {
				if !sameTable(tbl, got) {
					t.Fatalf("flip byte %d bit %d: decoded different data with no error", off, bit)
				}
				t.Fatalf("flip byte %d bit %d: decoded successfully (checksum missed it)", off, bit)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: error %v does not wrap ErrCorrupt", off, bit, err)
			}
		}
	}
}

// TestCorruptTableTruncation: every proper prefix of a table file fails
// with ErrCorrupt — truncation can never pass as a smaller table.
func TestCorruptTableTruncation(t *testing.T) {
	enc := encodeTable(t, testTable(t, 2000))
	for n := 0; n < len(enc); n++ {
		_, err := ReadTable(bytes.NewReader(enc[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(enc))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

// TestCorruptTableAppendedGarbage: trailing bytes after the terminator are
// ignored (the reader stops at the terminator chunk).
func TestCorruptTableIgnoresTrailingBytes(t *testing.T) {
	tbl := testTable(t, 100)
	enc := encodeTable(t, tbl)
	got, err := ReadTable(bytes.NewReader(append(enc, "trailing"...)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(tbl, got) {
		t.Fatal("table with trailing bytes decoded differently")
	}
}

// TestCorruptRejectsLegacyVersions: a table file of an earlier format
// version (1 and 2 carried no checksums, 3 per-chunk min/max bounds) is
// rejected as ErrCorrupt ("unsupported version") by its header and never
// decoded, not even partially. The files are well-formed current ones whose
// header names the legacy version: the reader must not look past it.
func TestCorruptRejectsLegacyVersions(t *testing.T) {
	enc := encodeTable(t, testTable(t, 500))
	for _, ver := range []uint32{1, 2, 3} {
		legacy := slices.Clone(enc)
		binary.LittleEndian.PutUint32(legacy[len(magic):], ver)
		got, err := ReadTable(bytes.NewReader(legacy))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", ver)) {
			t.Fatalf("v%d: err = %v, want ErrCorrupt naming the version", ver, err)
		}
		if got != nil {
			t.Fatalf("v%d: returned a table alongside %v", ver, err)
		}
	}
}

// TestCorruptTableFileOnDisk: corrupting the persisted .tbl file makes
// LoadTable report ErrCorrupt — wrong bindings are impossible.
func TestCorruptTableFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	d := Open(dir)
	tbl := testTable(t, 1000)
	if err := d.SaveTable(tbl); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, tableFile(tbl.Name))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadTable(tbl.Name); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadTable on corrupt file: %v, want ErrCorrupt", err)
	}
}

// TestFaultStoreIOErrorIsNotCorrupt: an injected disk read failure must
// pass through as an I/O error, not be misclassified as corruption.
func TestFaultStoreIOErrorIsNotCorrupt(t *testing.T) {
	dir := t.TempDir()
	d := Open(dir)
	tbl := testTable(t, 1000)
	if err := d.SaveTable(tbl); err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(fault.OS)
	in.FailNthRead(1, nil) // the table's first read fails
	d2 := OpenFS(dir, in)
	_, err := d2.LoadTable(tbl.Name)
	if err == nil {
		t.Fatal("expected injected read error")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("I/O error misclassified as corruption: %v", err)
	}
}
