package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"sort"
	"time"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
)

// External (spilling) hash-join builds. When a per-query memory budget is
// set (Exec.SetMemBudget) and the accounted intermediate state plus the
// would-be join table exceeds it, a join build (joinBuild: inner or outer,
// shuffled or broadcast) goes to sorted temp-file runs instead of an
// in-memory index table: the build's (key tuple, row index) entries are
// sorted in bounded chunks, written as run files, then k-way merged and
// merge-joined against each probe block's key-sorted selection vector. The
// build and probe *blocks* stay in memory (they already exist — the budget
// bounds what the join adds), so the savings are the table's 12 bytes per
// slot plus 4 per row, replaced by one 4-byte selection entry per probe row
// and spillRunRows entries of transient sort state. Spilled bytes are
// metered as BytesSpilled. Disk failures never fail the query: the build
// falls back to its in-memory table.

// spillRunRows bounds the entries sorted in memory per run: the transient
// sort state is spillRunRows*(keyWidth+1)*4 bytes regardless of build size.
const spillRunRows = 1 << 14

// spillEntry is one build-side row in sort order: its join-key tuple and
// its row index in the build block.
type spillEntry struct {
	key []dict.ID
	row int32
}

// keyLess orders key tuples lexicographically by raw ID value, with the row
// index as the final tie-break so runs (and the merged stream) have one
// deterministic order.
func keyLess(a, b []dict.ID, ar, br int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return ar < br
}

// spillRuns is one build side spilled to sorted run files. The files are
// unlinked on creation and read through ReadAt-backed section readers, so
// any number of probe partitions may merge-join against the same runs
// concurrently.
type spillRuns struct {
	files    []fault.File
	sizes    []int64
	keyWidth int
}

func (sr *spillRuns) close() {
	for _, f := range sr.files {
		f.Close()
	}
}

// Spill-write retry policy: a transient disk error (a full tmpfs being
// cleaned, a flaky NFS mount) should not immediately force the join back
// to an in-memory build that the memory budget was protecting against.
// Each run write is attempted spillRetries times with doubling backoff; a
// fresh temp file per attempt, so a partial write never survives into a
// retry. Only after the last attempt fails does the caller's in-memory
// fallback engage.
const (
	spillRetries = 3
	spillBackoff = time.Millisecond
)

// writeRunOnce writes one sorted chunk of entries as a run file under dir:
// keyWidth+1 little-endian uint32 words per entry.
func (x *Exec) writeRunOnce(dir string, entries []spillEntry, keyWidth int) (fault.File, int64, error) {
	f, err := x.fsys().CreateTemp(dir, "s2rdf-spill-*.run")
	if err != nil {
		return nil, 0, err
	}
	// Remove the name immediately: the descriptor keeps the file readable,
	// and a crashed query leaks no run files.
	x.fsys().Remove(f.Name())
	w := bufio.NewWriter(f)
	var word [4]byte
	for _, e := range entries {
		for _, k := range e.key {
			binary.LittleEndian.PutUint32(word[:], uint32(k))
			w.Write(word[:])
		}
		binary.LittleEndian.PutUint32(word[:], uint32(e.row))
		if _, err := w.Write(word[:]); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(len(entries)) * int64(keyWidth+1) * 4, nil
}

// writeRun is writeRunOnce under the bounded retry policy, reporting each
// attempt's outcome to the execution's FaultReporter.
func (x *Exec) writeRun(dir string, entries []spillEntry, keyWidth int) (fault.File, int64, error) {
	var err error
	for attempt := 0; attempt < spillRetries; attempt++ {
		if attempt > 0 {
			if x.Cancelled() {
				break
			}
			time.Sleep(spillBackoff << (attempt - 1))
		}
		var f fault.File
		var n int64
		f, n, err = x.writeRunOnce(dir, entries, keyWidth)
		if err == nil {
			x.reportIOSuccess()
			return f, n, nil
		}
		x.reportIOFailure(err)
	}
	return nil, 0, err
}

// buildSpillRuns sorts the build side's (key tuple, row) entries, read from
// its contiguous key columns, in chunks of spillRunRows and spills each as
// one run file, metering BytesSpilled.
// ok=false means a file error; the caller must fall back to the in-memory
// join. A cancelled execution returns the runs written so far (truncated
// output under cancellation, as with every operator).
func (x *Exec) buildSpillRuns(keys [][]dict.ID) (sr *spillRuns, ok bool) {
	keyWidth := len(keys)
	dir := x.spillDir
	if dir == "" {
		dir = os.TempDir()
	}
	sr = &spillRuns{keyWidth: keyWidth}
	bn := len(keys[0])
	chunk := min(bn, spillRunRows)
	entries := make([]spillEntry, 0, chunk)
	keyBuf := make([]dict.ID, 0, chunk*keyWidth)
	flush := func() bool {
		if len(entries) == 0 {
			return true
		}
		sort.Slice(entries, func(i, j int) bool {
			return keyLess(entries[i].key, entries[j].key, entries[i].row, entries[j].row)
		})
		f, bytes, err := x.writeRun(dir, entries, keyWidth)
		if err != nil {
			return false
		}
		x.addBytesSpilled(bytes)
		sr.files = append(sr.files, f)
		sr.sizes = append(sr.sizes, bytes)
		entries = entries[:0]
		keyBuf = keyBuf[:0]
		return true
	}
	for i := 0; i < bn; i++ {
		if x.stop(i) {
			break
		}
		lo := len(keyBuf)
		for _, col := range keys {
			keyBuf = append(keyBuf, col[i])
		}
		entries = append(entries, spillEntry{key: keyBuf[lo : lo+keyWidth], row: int32(i)})
		if len(entries) == spillRunRows {
			if !flush() {
				sr.close()
				return nil, false
			}
		}
	}
	if !flush() {
		sr.close()
		return nil, false
	}
	return sr, true
}

// errTornRun reports a spill run file shorter than the bytes its writer
// accounted: a torn write the filesystem did not surface as an error.
var errTornRun = errors.New("engine: spill run truncated (torn write)")

// runReader streams one sorted run back, one entry at a time, through its
// own section reader (safe alongside other readers of the same file). It
// tracks the bytes remaining against the writer's accounting, so a run
// file that comes up short — a torn write that reported success — is an
// error rather than a silently shortened run.
type runReader struct {
	r         *bufio.Reader
	buf       []byte
	remaining int64
	cur       spillEntry
	ok        bool
}

func (sr *spillRuns) readers() []*runReader {
	out := make([]*runReader, len(sr.files))
	for i, f := range sr.files {
		out[i] = &runReader{
			r:         bufio.NewReader(io.NewSectionReader(f, 0, sr.sizes[i])),
			buf:       make([]byte, (sr.keyWidth+1)*4),
			remaining: sr.sizes[i],
			cur:       spillEntry{key: make([]dict.ID, sr.keyWidth)},
		}
	}
	return out
}

// advance loads the next entry into cur; ok reports whether one was read.
// The run ends cleanly only after exactly the written byte count; a short
// or failed read is an error the join must not paper over (it would
// silently drop matches).
func (rr *runReader) advance() error {
	if rr.remaining <= 0 {
		rr.ok = false
		return nil
	}
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		rr.ok = false
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Bytes were accounted but are not in the file: a torn write.
			return errTornRun
		}
		return err
	}
	rr.remaining -= int64(len(rr.buf))
	for i := range rr.cur.key {
		rr.cur.key[i] = dict.ID(binary.LittleEndian.Uint32(rr.buf[i*4:]))
	}
	rr.cur.row = int32(binary.LittleEndian.Uint32(rr.buf[len(rr.cur.key)*4:]))
	rr.ok = true
	return nil
}

// spillProbePairs merge-joins one probe side, given by its contiguous key
// columns, against the spilled build runs, appending to bsel and psel the same (build row, probe row) pairs,
// in the same order, as an in-memory probe: the merge emits them in key
// order and a final in-place sort restores probe-row order. The probe
// side's row indices are key-sorted in memory (4 bytes per probe row,
// accounted — the state this path does keep). ok=false means a read error;
// fall back to the in-memory join.
func (x *Exec) spillProbePairs(sr *spillRuns, keys [][]dict.ID, bsel, psel []int32) ([]int32, []int32, bool) {
	keyWidth := sr.keyWidth
	runs := sr.readers()
	for _, rr := range runs {
		if err := rr.advance(); err != nil {
			x.reportIOFailure(err)
			return nil, nil, false
		}
	}

	pn := len(keys[0])
	psorted := identityPerm(pn)
	sort.Slice(psorted, func(a, b int) bool {
		ia, ib := psorted[a], psorted[b]
		for k := 0; k < keyWidth; k++ {
			va, vb := keys[k][ia], keys[k][ib]
			if va != vb {
				return va < vb
			}
		}
		return ia < ib
	})
	x.trackBytes(int64(pn) * 4)

	// probeCmp three-way compares probe row psorted[pos] against a build key.
	probeCmp := func(pos int, key []dict.ID) int {
		i := psorted[pos]
		for k := 0; k < keyWidth; k++ {
			v := keys[k][i]
			if v != key[k] {
				if v < key[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	}

	n0 := len(bsel)
	var comparisons int64
	pp := 0
	emitted := 0
	for {
		// Pop the minimum entry across run heads (runs are few: a linear
		// scan beats heap bookkeeping at this fan-in).
		minRun := -1
		for ri, rr := range runs {
			if !rr.ok {
				continue
			}
			if minRun < 0 || keyLess(rr.cur.key, runs[minRun].cur.key, rr.cur.row, runs[minRun].cur.row) {
				minRun = ri
			}
		}
		if minRun < 0 {
			break
		}
		if x.stop(emitted) {
			break
		}
		emitted++
		cur := runs[minRun].cur
		// Advance the probe cursor past smaller keys, then emit the matching
		// probe range for this build entry. Merged build keys never
		// decrease, so the cursor only moves forward.
		for pp < pn && probeCmp(pp, cur.key) < 0 {
			pp++
		}
		for pe := pp; pe < pn; pe++ {
			comparisons++
			if probeCmp(pe, cur.key) != 0 {
				break
			}
			bsel = append(bsel, cur.row)
			psel = append(psel, psorted[pe])
		}
		if err := runs[minRun].advance(); err != nil {
			x.reportIOFailure(err)
			return nil, nil, false
		}
	}
	x.addComparisons(comparisons)
	sort.Sort(pairOrder{bsel[n0:], psel[n0:]})
	return bsel, psel, true
}

// pairOrder sorts (build row, probe row) pairs by probe row, then build
// row: the order an in-memory probe emits them in.
type pairOrder struct{ b, p []int32 }

func (o pairOrder) Len() int { return len(o.p) }
func (o pairOrder) Less(i, j int) bool {
	return o.p[i] < o.p[j] || o.p[i] == o.p[j] && o.b[i] < o.b[j]
}
func (o pairOrder) Swap(i, j int) {
	o.b[i], o.b[j] = o.b[j], o.b[i]
	o.p[i], o.p[j] = o.p[j], o.p[i]
}
