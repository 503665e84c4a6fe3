package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
)

// File format: every file of a store directory is framed the same way,
//
//	magic "S2TB" | version u32 | payload in checksummed chunks:
//	chunk: payload-len u32 | crc32c u32 | payload   (≤ 64 KiB payload)
//	terminator: 0 u32 | 0 u32
//
// so every persisted byte is covered by a CRC32C (Castagnoli) checksum and
// bit rot, torn writes and truncation are detected on first read instead of
// surfacing as garbage bindings or wrong statistics. Corruption — a
// checksum mismatch, a bad magic or version, a structurally impossible
// value, or a file that ends before its terminator chunk — is reported as
// an error wrapping ErrCorrupt; genuine I/O errors from the underlying
// reader pass through unwrapped so callers can tell a bad disk from bad
// data. A table file carries tableVersion, every other file version; any
// other version is corruption.
//
// A table's payload ("parquet-lite") is a little-endian columnar body:
//
//	ncols u32 | nrows u64 | sortcol u32
//	per column: name-len u32 | name | nruns u64 | runs (value uvarint, length uvarint)
//	            distinct u64
//
// Columns are run-length encoded; dictionary encoding already happened via
// the global term dictionary, so values are uint32 IDs. The body carries the
// statistics Table.Finalize computes — the sort column and per-column
// distinct counts — so a loaded store binary searches its scans and prices
// bound terms without re-deriving them.
const (
	magic = "S2TB"
	// version frames every file but a table: the dictionary and the
	// manifest.
	version = 3
	// tableVersion frames a table file. Version 3 tables also carried each
	// column's minimum and maximum per 1024-row chunk.
	tableVersion = 4
	// noSortCol encodes Table.SortCol == -1.
	noSortCol = ^uint32(0)

	// chunkSize is the checksummed-chunk payload size writers emit.
	chunkSize = 64 << 10
	// maxChunkSize bounds the chunk payload length readers accept; bigger
	// claims are corruption, not allocation requests.
	maxChunkSize = 1 << 20

	// Structural bounds: claims beyond these are corruption. They also cap
	// what a corrupt length field can make the reader allocate up front.
	maxCols     = 1 << 16
	maxNameLen  = 1 << 20
	maxPreAlloc = 1 << 20
)

// ErrCorrupt marks data-integrity failures: checksum mismatches, impossible
// structure, or truncation in any persisted file of a store. It is never
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

// writeFramed writes the header to w and then fill's output in checksummed
// chunks, ending with the terminator. It returns the number of bytes
// written.
func writeFramed(w io.Writer, ver uint32, fill func(io.Writer) error) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &countingWriter{w: bw}
	if _, err := cw.Write([]byte(magic)); err != nil {
		return cw.n, err
	}
	writeU32(cw, ver)
	fw := &chunkWriter{w: cw}
	if err := fill(fw); err != nil {
		return cw.n, err
	}
	if err := fw.Close(); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, cw.err
}

// readFramed checks the header of r and hands parse the checksum-verified
// payload, which parse must consume to its end. Corruption — and any
// format version other than ver — is reported as an error wrapping
// ErrCorrupt.
func readFramed(r io.Reader, ver uint32, parse func(*bufio.Reader) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [8]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return asCorrupt(err, "header")
	}
	if string(head[:4]) != magic {
		return corruptf("bad magic %q", head[:4])
	}
	if got := binary.LittleEndian.Uint32(head[4:]); got != ver {
		return corruptf("unsupported version %d", got)
	}
	body := bufio.NewReaderSize(&chunkReader{r: br}, 1<<16)
	if err := parse(body); err != nil {
		return err
	}
	// The payload must end exactly where the terminator chunk begins: a
	// file truncated after its last data chunk, or one with stray payload
	// after the body, is damaged even though every chunk it does have
	// checksums clean.
	if _, err := body.ReadByte(); err == nil {
		return corruptf("trailing data after payload")
	} else if !errors.Is(err, io.EOF) {
		return asCorrupt(err, "terminator")
	}
	return nil
}

// WriteTable serializes t to w in the current (checksummed) table format.
// It returns the number of bytes written.
func WriteTable(w io.Writer, t *Table) (int64, error) {
	return writeFramed(w, tableVersion, t.writeBody)
}

// writeBody writes the table body (everything the framing wraps) to w.
func (t *Table) writeBody(w io.Writer) error {
	buf := make([]byte, binary.MaxVarintLen64)
	writeU32(w, uint32(len(t.Cols)))
	writeU64(w, uint64(t.NumRows()))
	if t.SortCol >= 0 {
		writeU32(w, uint32(t.SortCol))
	} else {
		writeU32(w, noSortCol)
	}
	for c, name := range t.Cols {
		writeU32(w, uint32(len(name)))
		if _, err := w.Write([]byte(name)); err != nil {
			return err
		}
		runs := rleEncode(t.Data[c])
		writeU64(w, uint64(len(runs)))
		for _, r := range runs {
			n := binary.PutUvarint(buf, uint64(r.value))
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
			n = binary.PutUvarint(buf, uint64(r.length))
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
		}
		distinct := 0
		if c < len(t.Distinct) {
			distinct = t.Distinct[c]
		}
		writeU64(w, uint64(distinct))
	}
	return nil
}

// ReadTable deserializes a table written by WriteTable. Corruption — and any
// format version other than the current one — is reported as an error
// wrapping ErrCorrupt.
func ReadTable(r io.Reader) (*Table, error) {
	t := &Table{}
	if err := readFramed(r, tableVersion, t.readBody); err != nil {
		return nil, err
	}
	return t, nil
}

// readBody parses the table body (the framed payload) from br, which
// verifies the chunk checksums, into t.
func (t *Table) readBody(br *bufio.Reader) error {
	ncols, err := readU32(br)
	if err != nil {
		return asCorrupt(err, "column count")
	}
	if ncols > maxCols {
		return corruptf("implausible column count %d", ncols)
	}
	nrows, err := readU64(br)
	if err != nil {
		return asCorrupt(err, "row count")
	}
	t.SortCol, t.Distinct = -1, make([]int, 0, ncols)
	sc, err := readU32(br)
	if err != nil {
		return asCorrupt(err, "sort column")
	}
	if sc != noSortCol {
		if sc >= ncols {
			return corruptf("sort column %d out of range", sc)
		}
		t.SortCol = int(sc)
	}
	for c := uint32(0); c < ncols; c++ {
		nameLen, err := readU32(br)
		if err != nil {
			return asCorrupt(err, "column name length")
		}
		if nameLen > maxNameLen {
			return corruptf("implausible column name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return asCorrupt(err, "column name")
		}
		t.Cols = append(t.Cols, string(name))
		nruns, err := readU64(br)
		if err != nil {
			return asCorrupt(err, "run count")
		}
		if nruns > nrows {
			return corruptf("column %q has %d runs for %d rows",
				string(name), nruns, nrows)
		}
		col := make([]dict.ID, 0, min(nrows, maxPreAlloc))
		for i := uint64(0); i < nruns; i++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return asCorrupt(err, "run value")
			}
			if v > math.MaxUint32 {
				return corruptf("column %q run value %d exceeds ID range",
					string(name), v)
			}
			length, err := binary.ReadUvarint(br)
			if err != nil {
				return asCorrupt(err, "run length")
			}
			if length > nrows-uint64(len(col)) {
				return corruptf("column %q runs exceed %d rows",
					string(name), nrows)
			}
			for j := uint64(0); j < length; j++ {
				col = append(col, dict.ID(v))
			}
		}
		if uint64(len(col)) != nrows {
			return corruptf("column %q has %d rows, want %d",
				string(name), len(col), nrows)
		}
		t.Data = append(t.Data, col)
		distinct, err := readU64(br)
		if err != nil {
			return asCorrupt(err, "distinct count")
		}
		if distinct > nrows {
			return corruptf("column %q distinct %d exceeds %d rows",
				string(name), distinct, nrows)
		}
		t.Distinct = append(t.Distinct, int(distinct))
	}
	return nil
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

// Dir is an on-disk store directory: one file per table plus whatever
// other files its user writes (the layout package keeps the term
// dictionary and the store's manifest there). It corresponds to the HDFS
// directory that holds the Parquet files in the paper's deployment. Every
// file goes through the same checksummed framing, so every persisted byte
// is verified on read.
type Dir struct {
	path string
	fs   fault.FS
}

// Open returns the store directory at path. It performs no I/O: a missing
// directory surfaces on the first read, and writers create it themselves.
func Open(path string) *Dir { return OpenFS(path, fault.OS) }

// OpenFS is Open with all I/O routed through fs, which chaos tests use to
// inject disk faults deterministically.
func OpenFS(path string, fs fault.FS) *Dir { return &Dir{path: path, fs: fs} }

// WriteFile writes the file name of the directory in the framed format,
// with fill's output as its payload.
func (d *Dir) WriteFile(name string, fill func(io.Writer) error) error {
	return d.writeFile(name, version, fill)
}

func (d *Dir) writeFile(name string, ver uint32, fill func(io.Writer) error) error {
	f, err := d.fs.Create(filepath.Join(d.path, name))
	if err != nil {
		return err
	}
	_, werr := writeFramed(f, ver, fill)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadFile reads the framed file name of the directory and hands parse its
// checksum-verified payload, which parse must consume to its end. A
// checksum mismatch, truncation or a bad header reports an error wrapping
// ErrCorrupt; I/O errors pass through, and parse's own errors are returned
// as it made them, named after the file.
func (d *Dir) ReadFile(name string, parse func(*bufio.Reader) error) error {
	return d.readFile(name, version, parse)
}

func (d *Dir) readFile(name string, ver uint32, parse func(*bufio.Reader) error) error {
	f, err := d.fs.Open(filepath.Join(d.path, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := readFramed(f, ver, parse); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// SaveTable persists t.
func (d *Dir) SaveTable(t *Table) error {
	return d.writeFile(tableFile(t.Name), tableVersion, t.writeBody)
}

// LoadTable reads a table back from disk, verifying its checksums. A
// checksum mismatch or structural impossibility reports ErrCorrupt — a
// corrupted file can error, never produce wrong bindings.
func (d *Dir) LoadTable(name string) (*Table, error) {
	t := &Table{Name: name}
	if err := d.readFile(tableFile(name), tableVersion, t.readBody); err != nil {
		return nil, err
	}
	return t, nil
}

// TableBytes returns the on-disk size of the table name.
func (d *Dir) TableBytes(name string) (int64, error) { return d.FileBytes(tableFile(name)) }

// FileBytes returns the on-disk size of the file name.
func (d *Dir) FileBytes(name string) (int64, error) {
	fi, err := os.Stat(filepath.Join(d.path, name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// tableFile maps a table name to a file name, escaping separators.
func tableFile(name string) string {
	return strings.NewReplacer("/", "_", ":", "-", "|", "+").Replace(name) + ".tbl"
}
