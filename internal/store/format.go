package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
)

// File format ("parquet-lite"): a little-endian binary layout per table.
//
//	magic "S2TB" | version u32
//	body: ncols u32 | nrows u64 | sortcol u32
//	per column: name-len u32 | name | nruns u64 | runs (value uvarint, length uvarint)
//	            distinct u64 | nzones u64 | zones (min uvarint, max uvarint)
//
// Columns are run-length encoded; dictionary encoding already happened via
// the global term dictionary, so values are uint32 IDs. The body carries the
// scan statistics Table.Finalize computes — the sort column, per-column
// distinct counts and zone maps — so a loaded store prunes scans without
// re-deriving them. The body (everything after the 8-byte header) is
// wrapped in checksummed chunks:
//
//	chunk: payload-len u32 | crc32c u32 | payload   (≤ 64 KiB payload)
//	terminator: 0 u32 | 0 u32
//
// so every byte of a persisted table is covered by a CRC32C (Castagnoli)
// checksum and bit rot, torn writes and truncation are detected on first
// read instead of surfacing as garbage bindings. Corruption — a checksum
// mismatch, a bad magic or version, a structurally impossible value, or a
// file that ends before its terminator chunk — is reported as an error
// wrapping ErrCorrupt; genuine I/O errors from the underlying reader pass
// through unwrapped so callers can tell a bad disk from bad data. Only
// version 3 is readable; any other version is reported as corruption.
const (
	magic   = "S2TB"
	version = 3
	// noSortCol encodes Table.SortCol == -1.
	noSortCol = ^uint32(0)

	// chunkSize is the checksummed-chunk payload size WriteTable emits.
	chunkSize = 64 << 10
	// maxChunkSize bounds the payload length ReadTable accepts; bigger
	// claims are corruption, not allocation requests.
	maxChunkSize = 1 << 20

	// Structural bounds: claims beyond these are corruption. They also cap
	// what a corrupt length field can make the reader allocate up front.
	maxCols     = 1 << 16
	maxNameLen  = 1 << 20
	maxPreAlloc = 1 << 20
)

// ErrCorrupt marks data-integrity failures: checksum mismatches, impossible
// structure, or truncation in a persisted table or manifest. It is never
// used for ordinary I/O errors. Test with errors.Is.
var ErrCorrupt = errors.New("data corruption detected")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: "+format+": %w", append(args, ErrCorrupt)...)
}

// asCorrupt classifies err for a structural read: end-of-file means the
// format claimed more data than the file holds (truncation — corruption),
// while any other error is a real I/O failure and passes through.
func asCorrupt(err error, what string) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptf("%s: unexpected end of file", what)
	}
	return err
}

// WriteTable serializes t to w in the current (v3, checksummed) format.
// It returns the number of bytes written.
func WriteTable(w io.Writer, t *Table) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countingWriter{w: bw}

	if _, err := cw.Write([]byte(magic)); err != nil {
		return cw.n, err
	}
	writeU32(cw, version)

	fw := &chunkWriter{w: cw}
	buf := make([]byte, binary.MaxVarintLen64)
	writeU32(fw, uint32(len(t.Cols)))
	writeU64(fw, uint64(t.NumRows()))
	if t.SortCol >= 0 {
		writeU32(fw, uint32(t.SortCol))
	} else {
		writeU32(fw, noSortCol)
	}
	for c, name := range t.Cols {
		writeU32(fw, uint32(len(name)))
		if _, err := fw.Write([]byte(name)); err != nil {
			return cw.n, err
		}
		runs := rleEncode(t.Data[c])
		writeU64(fw, uint64(len(runs)))
		for _, r := range runs {
			n := binary.PutUvarint(buf, uint64(r.value))
			if _, err := fw.Write(buf[:n]); err != nil {
				return cw.n, err
			}
			n = binary.PutUvarint(buf, uint64(r.length))
			if _, err := fw.Write(buf[:n]); err != nil {
				return cw.n, err
			}
		}
		var m ColMeta
		if c < len(t.Meta) {
			m = t.Meta[c]
		}
		writeU64(fw, uint64(m.Distinct))
		writeU64(fw, uint64(len(m.ZoneMin)))
		for z := range m.ZoneMin {
			n := binary.PutUvarint(buf, uint64(m.ZoneMin[z]))
			if _, err := fw.Write(buf[:n]); err != nil {
				return cw.n, err
			}
			n = binary.PutUvarint(buf, uint64(m.ZoneMax[z]))
			if _, err := fw.Write(buf[:n]); err != nil {
				return cw.n, err
			}
		}
	}
	if err := fw.Close(); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

// ReadTable deserializes a table written by WriteTable. Corruption — and any
// format version other than the current one — is reported as an error
// wrapping ErrCorrupt.
func ReadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, asCorrupt(fmt.Errorf("store: reading magic: %w", err), "header")
	}
	if string(head) != magic {
		return nil, corruptf("bad magic %q", head)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, asCorrupt(err, "header")
	}
	if ver != version {
		return nil, corruptf("unsupported version %d", ver)
	}
	// The body is chunk-framed: parse it through the checksum-verifying
	// reader.
	body := bufio.NewReaderSize(&chunkReader{r: br}, 1<<16)
	t, err := readTableBody(body)
	if err != nil {
		return nil, err
	}
	// The body must end exactly where the terminator chunk begins: a file
	// truncated after its last data chunk, or one with stray payload after
	// the body, is damaged even though every chunk it does have checksums
	// clean.
	if _, err := body.ReadByte(); err == nil {
		return nil, corruptf("trailing data after table body")
	} else if !errors.Is(err, io.EOF) {
		return nil, asCorrupt(err, "terminator")
	}
	return t, nil
}

// readTableBody parses the table body (everything after magic+version)
// from br, which verifies the chunk checksums.
func readTableBody(br *bufio.Reader) (*Table, error) {
	ncols, err := readU32(br)
	if err != nil {
		return nil, asCorrupt(err, "column count")
	}
	if ncols > maxCols {
		return nil, corruptf("implausible column count %d", ncols)
	}
	nrows, err := readU64(br)
	if err != nil {
		return nil, asCorrupt(err, "row count")
	}
	t := &Table{SortCol: -1, Meta: make([]ColMeta, 0, ncols)}
	sc, err := readU32(br)
	if err != nil {
		return nil, asCorrupt(err, "sort column")
	}
	if sc != noSortCol {
		if sc >= ncols {
			return nil, corruptf("sort column %d out of range", sc)
		}
		t.SortCol = int(sc)
	}
	for c := uint32(0); c < ncols; c++ {
		nameLen, err := readU32(br)
		if err != nil {
			return nil, asCorrupt(err, "column name length")
		}
		if nameLen > maxNameLen {
			return nil, corruptf("implausible column name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, asCorrupt(err, "column name")
		}
		t.Cols = append(t.Cols, string(name))
		nruns, err := readU64(br)
		if err != nil {
			return nil, asCorrupt(err, "run count")
		}
		if nruns > nrows {
			return nil, corruptf("column %q has %d runs for %d rows",
				string(name), nruns, nrows)
		}
		col := make([]dict.ID, 0, min(nrows, maxPreAlloc))
		for i := uint64(0); i < nruns; i++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, asCorrupt(err, "run value")
			}
			if v > math.MaxUint32 {
				return nil, corruptf("column %q run value %d exceeds ID range",
					string(name), v)
			}
			length, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, asCorrupt(err, "run length")
			}
			if length > nrows-uint64(len(col)) {
				return nil, corruptf("column %q runs exceed %d rows",
					string(name), nrows)
			}
			for j := uint64(0); j < length; j++ {
				col = append(col, dict.ID(v))
			}
		}
		if uint64(len(col)) != nrows {
			return nil, corruptf("column %q has %d rows, want %d",
				string(name), len(col), nrows)
		}
		t.Data = append(t.Data, col)
		var m ColMeta
		distinct, err := readU64(br)
		if err != nil {
			return nil, asCorrupt(err, "distinct count")
		}
		if distinct > nrows {
			return nil, corruptf("column %q distinct %d exceeds %d rows",
				string(name), distinct, nrows)
		}
		m.Distinct = int(distinct)
		nzones, err := readU64(br)
		if err != nil {
			return nil, asCorrupt(err, "zone count")
		}
		// nzones is 0 when the table was never finalized (no zone map).
		if want := (nrows + ZoneSize - 1) / ZoneSize; nzones != 0 && nzones != want {
			return nil, corruptf("column %q has %d zones, want %d",
				string(name), nzones, want)
		}
		m.ZoneMin = make([]dict.ID, nzones)
		m.ZoneMax = make([]dict.ID, nzones)
		for z := uint64(0); z < nzones; z++ {
			lo, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, asCorrupt(err, "zone min")
			}
			hi, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, asCorrupt(err, "zone max")
			}
			if lo > math.MaxUint32 || hi > math.MaxUint32 || lo > hi {
				return nil, corruptf("column %q zone %d bounds [%d,%d] invalid",
					string(name), z, lo, hi)
			}
			m.ZoneMin[z], m.ZoneMax[z] = dict.ID(lo), dict.ID(hi)
		}
		t.Meta = append(t.Meta, m)
	}
	return t, nil
}

// chunkWriter frames its input into checksummed chunks:
// payload-len u32 | crc32c u32 | payload, ended by a zero-length
// terminator chunk. Close flushes the final partial chunk and the
// terminator.
type chunkWriter struct {
	w   io.Writer
	buf []byte
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		free := chunkSize - len(cw.buf)
		n := min(free, len(p))
		cw.buf = append(cw.buf, p[:n]...)
		p = p[n:]
		if len(cw.buf) == chunkSize {
			if err := cw.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (cw *chunkWriter) flush() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(cw.buf)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(cw.buf, castagnoli))
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(cw.buf); err != nil {
		return err
	}
	cw.buf = cw.buf[:0]
	return nil
}

func (cw *chunkWriter) Close() error {
	if len(cw.buf) > 0 {
		if err := cw.flush(); err != nil {
			return err
		}
	}
	// Terminator: len 0, crc 0. Its presence distinguishes a complete file
	// from one truncated at a chunk boundary.
	var hdr [8]byte
	_, err := cw.w.Write(hdr[:])
	return err
}

// chunkReader streams the payload bytes of a chunk-framed body, verifying
// each chunk's CRC32C before delivering any of its bytes. It returns
// ErrCorrupt-wrapped errors for checksum mismatches, implausible chunk
// sizes, and truncation before the terminator chunk.
type chunkReader struct {
	r    io.Reader
	buf  []byte
	off  int
	done bool
	err  error
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	if cr.err != nil {
		return 0, cr.err
	}
	for cr.off >= len(cr.buf) {
		if cr.done {
			return 0, io.EOF
		}
		if err := cr.nextChunk(); err != nil {
			cr.err = err
			return 0, err
		}
	}
	n := copy(p, cr.buf[cr.off:])
	cr.off += n
	return n, nil
}

func (cr *chunkReader) nextChunk() error {
	var hdr [8]byte
	if _, err := io.ReadFull(cr.r, hdr[:]); err != nil {
		return asCorrupt(err, "chunk header")
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if size == 0 {
		if sum != 0 {
			return corruptf("chunk terminator has nonzero checksum")
		}
		cr.done = true
		cr.buf, cr.off = nil, 0
		return nil
	}
	if size > maxChunkSize {
		return corruptf("implausible chunk size %d", size)
	}
	if cap(cr.buf) < int(size) {
		cr.buf = make([]byte, size)
	}
	cr.buf = cr.buf[:size]
	cr.off = 0
	if _, err := io.ReadFull(cr.r, cr.buf); err != nil {
		return asCorrupt(err, "chunk payload")
	}
	if got := crc32.Checksum(cr.buf, castagnoli); got != sum {
		return corruptf("chunk checksum mismatch: %08x != %08x", got, sum)
	}
	return nil
}

type run struct {
	value  dict.ID
	length uint32
}

func rleEncode(col []dict.ID) []run {
	var runs []run
	for i := 0; i < len(col); {
		j := i + 1
		for j < len(col) && col[j] == col[i] {
			j++
		}
		runs = append(runs, run{value: col[i], length: uint32(j - i)})
		i = j
	}
	return runs
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func writeU32(w io.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Dir is an on-disk table store: one file per table plus a JSON manifest and
// the serialized term dictionary. It corresponds to the HDFS directory that
// holds the Parquet files in the paper's deployment.
type Dir struct {
	path     string
	fs       fault.FS
	manifest map[string]Stats
}

// manifestVersion is the checksummed manifest envelope version.
const manifestVersion = 3

// manifestFile is the on-disk manifest envelope (since v3): the table
// stats plus a CRC32C over their exact JSON encoding, so manifest bit rot
// is detected at Open instead of steering the planner with garbage
// statistics. Any other envelope — including a bare JSON object of stats
// without one — is reported as ErrCorrupt.
type manifestFile struct {
	Version int             `json:"version"`
	CRC32C  uint32          `json:"crc32c"`
	Tables  json.RawMessage `json:"tables"`
}

// Open opens (or creates) a table store at path, validating the manifest's
// checksum eagerly; a mismatch reports ErrCorrupt.
func Open(path string) (*Dir, error) { return OpenFS(path, fault.OS) }

// OpenFS is Open with all I/O routed through fs, which chaos tests use to
// inject disk faults deterministically.
func OpenFS(path string, fs fault.FS) (*Dir, error) {
	if fs == nil {
		fs = fault.OS
	}
	if err := fs.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	d := &Dir{path: path, fs: fs, manifest: make(map[string]Stats)}
	raw, err := fs.ReadFile(filepath.Join(path, "manifest.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return d, nil
		}
		return nil, err
	}
	var mf manifestFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, corruptf("corrupt manifest: %v", err)
	}
	if mf.Version != manifestVersion {
		return nil, corruptf("unsupported manifest version %d", mf.Version)
	}
	if got := crc32.Checksum(mf.Tables, castagnoli); got != mf.CRC32C {
		return nil, corruptf("manifest checksum mismatch: %08x != %08x",
			got, mf.CRC32C)
	}
	if err := json.Unmarshal(mf.Tables, &d.manifest); err != nil {
		return nil, corruptf("corrupt manifest tables: %v", err)
	}
	return d, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// SaveTable persists t and records its stats. sf is the selectivity factor
// relative to the base VP table (1 for base tables).
func (d *Dir) SaveTable(t *Table, sf float64) (Stats, error) {
	f, err := d.fs.Create(d.tablePath(t.Name))
	if err != nil {
		return Stats{}, err
	}
	n, werr := WriteTable(f, t)
	cerr := f.Close()
	if werr != nil {
		return Stats{}, werr
	}
	if cerr != nil {
		return Stats{}, cerr
	}
	st := Stats{Name: t.Name, Rows: t.NumRows(), SF: sf, Bytes: n, SortCol: t.SortColName()}
	if len(t.Meta) == len(t.Cols) && len(t.Cols) > 0 {
		st.Distinct = make([]int, len(t.Meta))
		for i := range t.Meta {
			st.Distinct[i] = t.Meta[i].Distinct
		}
	}
	d.manifest[t.Name] = st
	return st, nil
}

// RecordStats records statistics for a table that is not materialized
// (empty ExtVP tables, or tables filtered out by the SF threshold).
func (d *Dir) RecordStats(name string, rows int, sf float64) {
	d.manifest[name] = Stats{Name: name, Rows: rows, SF: sf}
}

// LoadTable reads a table back from disk, verifying its checksums. A
// checksum mismatch or structural impossibility reports ErrCorrupt — a
// corrupted file can error, never produce wrong bindings.
func (d *Dir) LoadTable(name string) (*Table, error) {
	f, err := d.fs.Open(d.tablePath(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTable(f)
	if err != nil {
		return nil, fmt.Errorf("store: table %q: %w", name, err)
	}
	t.Name = name
	return t, nil
}

// Stats returns the recorded stats for name.
func (d *Dir) Stats(name string) (Stats, bool) {
	st, ok := d.manifest[name]
	return st, ok
}

// AllStats returns stats for every known table, sorted by name.
func (d *Dir) AllStats() []Stats {
	out := make([]Stats, 0, len(d.manifest))
	for _, st := range d.manifest {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalBytes sums the on-disk bytes of all persisted tables.
func (d *Dir) TotalBytes() int64 {
	var n int64
	for _, st := range d.manifest {
		n += st.Bytes
	}
	return n
}

// Flush writes the checksummed manifest to disk.
func (d *Dir) Flush() error {
	tables, err := json.MarshalIndent(d.manifest, " ", " ")
	if err != nil {
		return err
	}
	mf := manifestFile{
		Version: manifestVersion,
		CRC32C:  crc32.Checksum(tables, castagnoli),
		Tables:  tables,
	}
	raw, err := json.MarshalIndent(&mf, "", " ")
	if err != nil {
		return err
	}
	return d.fs.WriteFile(filepath.Join(d.path, "manifest.json"), raw, 0o644)
}

// tablePath maps a table name to a file name, escaping separators.
func (d *Dir) tablePath(name string) string {
	enc := strings.NewReplacer("/", "_", ":", "-", "|", "+").Replace(name)
	return filepath.Join(d.path, enc+".tbl")
}
