package engine

import "s2rdf/internal/dict"

// Block is one partition of a relation stored column-major: one contiguous
// []dict.ID per column, every column the same length. Compared to the
// previous flat row-major buffer, operators now touch only the columns they
// need — key hashing runs over one contiguous slice, joins gather output
// columns once from (row-index) pair vectors, and column-copying operators
// (Project, Union alignment) can share column slices outright instead of
// copying rows.
//
// Invariants:
//   - len(cols[j]) == n for every column j;
//   - blocks are write-once: an operator appends only to the block it is
//     producing and only reads its inputs' blocks, so completed blocks are
//     immutable and their columns may be shared between blocks freely.
//
// A nil *Block behaves as an empty block for Len.
type Block struct {
	cols [][]dict.ID
	n    int
}

// NewBlock returns an empty block for rows of the given arity, with one
// backing buffer preallocated for capRows rows (sliced per column, so a
// block that stays within its estimate allocates once).
func NewBlock(arity, capRows int) *Block {
	if capRows < 0 {
		capRows = 0
	}
	b := &Block{cols: make([][]dict.ID, arity)}
	if capRows > 0 && arity > 0 {
		buf := make([]dict.ID, arity*capRows)
		for j := range b.cols {
			b.cols[j] = buf[j*capRows : j*capRows : (j+1)*capRows]
		}
	}
	return b
}

// newFixedBlock returns a block of exactly n rows with all columns allocated
// full-length (one backing buffer), for producers that scatter or gather
// into known positions instead of appending.
func newFixedBlock(arity, n int) *Block {
	b := &Block{cols: make([][]dict.ID, arity), n: n}
	if n > 0 && arity > 0 {
		buf := make([]dict.ID, arity*n)
		for j := range b.cols {
			b.cols[j] = buf[j*n : (j+1)*n : (j+1)*n]
		}
	}
	return b
}

// Len returns the number of rows. A nil block is empty.
func (b *Block) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Arity returns the number of IDs per row.
func (b *Block) Arity() int { return len(b.cols) }

// Col returns column j: a read-only view callers must not modify.
func (b *Block) Col(j int) []dict.ID { return b.cols[j] }

// Row materializes row i into a fresh slice. It allocates; hot paths read
// columns directly or reuse a buffer via CopyRow.
func (b *Block) Row(i int) Row {
	row := make(Row, len(b.cols))
	b.CopyRow(row, i)
	return row
}

// CopyRow copies row i into dst (len(dst) >= Arity()).
func (b *Block) CopyRow(dst Row, i int) {
	for j, col := range b.cols {
		dst[j] = col[i]
	}
}

// rowsEqualIDs reports whether two rows hold identical IDs.
func rowsEqualIDs(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowsEqual reports whether rows i and j hold identical IDs.
func (b *Block) rowsEqual(i, j int) bool {
	for _, col := range b.cols {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}

// Append copies one row (len == arity) into the block.
func (b *Block) Append(row Row) {
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], row[j])
	}
	b.n++
}

// AppendBlock bulk-copies every row of src (same arity) into b: one copy per
// column instead of a per-row loop.
func (b *Block) AppendBlock(src *Block) {
	if src.Len() == 0 {
		return
	}
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], src.cols[j]...)
	}
	b.n += src.n
}

// AppendRange bulk-copies rows [lo, hi) of src (same arity) into b.
func (b *Block) AppendRange(src *Block, lo, hi int) {
	if hi <= lo {
		return
	}
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], src.cols[j][lo:hi]...)
	}
	b.n += hi - lo
}

// AppendColumnsRange appends rows [lo, hi) of a column-major source, taking
// source column srcs[j] for output position j: one contiguous copy per
// column, which is how the late-materializing scan fills its output.
func (b *Block) AppendColumnsRange(cols [][]dict.ID, srcs []int, lo, hi int) {
	if hi <= lo {
		return
	}
	for j, src := range srcs {
		b.cols[j] = append(b.cols[j], cols[src][lo:hi]...)
	}
	b.n += hi - lo
}

// AppendColumnsSelected appends the rows at the selected indices of a
// column-major source, like AppendColumnsRange but gathering through a
// selection vector — one gather pass per column.
func (b *Block) AppendColumnsSelected(cols [][]dict.ID, srcs []int, sel []int32) {
	if len(sel) == 0 {
		return
	}
	for j, src := range srcs {
		col := cols[src]
		dst := b.cols[j]
		for _, ri := range sel {
			dst = append(dst, col[ri])
		}
		b.cols[j] = dst
	}
	b.n += len(sel)
}

// gatherSel materializes the rows at the selected indices of b into a fresh
// exactly-sized block, one gather pass per column. It is the single
// materialization point of every selection-vector operator (Filter, Distinct,
// semi joins).
func (b *Block) gatherSel(sel []int32) *Block {
	out := newFixedBlock(len(b.cols), len(sel))
	for j, col := range b.cols {
		dst := out.cols[j]
		for i, ri := range sel {
			dst[i] = col[ri]
		}
	}
	return out
}

// gatherPairs materializes join output from pair vectors: row lsel[i] of l
// concatenated with the rKeep columns of row rsel[i] of r. rsel[i] < 0 emits
// Nulls in the right columns (the unmatched-left rows of an outer join).
// Each output column is filled in one gather pass — the pipeline's single
// materialization of the join, however many probe steps produced the pairs.
func gatherPairs(l *Block, lsel []int32, r *Block, rKeep []int, rsel []int32) *Block {
	out := newFixedBlock(len(l.cols)+len(rKeep), len(lsel))
	for j, col := range l.cols {
		dst := out.cols[j]
		for i, ri := range lsel {
			dst[i] = col[ri]
		}
	}
	for k, rc := range rKeep {
		col := r.cols[rc]
		dst := out.cols[len(l.cols)+k]
		for i, ri := range rsel {
			if ri < 0 {
				dst[i] = Null
			} else {
				dst[i] = col[ri]
			}
		}
	}
	return out
}

// keepCols returns the column indices of [0, n) not listed in drop — the
// right-side columns a join's output keeps (its join columns are already
// present on the left).
func keepCols(n int, drop []int) []int {
	out := make([]int, 0, n-len(drop))
next:
	for j := 0; j < n; j++ {
		for _, d := range drop {
			if j == d {
				continue next
			}
		}
		out = append(out, j)
	}
	return out
}

// nullColumn returns an all-Null column of length n, shared by every padded
// column of a block (blocks are write-once, so sharing is safe).
func nullColumn(n int) []dict.ID {
	col := make([]dict.ID, n)
	for i := range col {
		col[i] = Null
	}
	return col
}

// blockOfRows copies a []Row slice into a fresh block.
func blockOfRows(arity int, rows []Row) *Block {
	b := NewBlock(arity, len(rows))
	for _, r := range rows {
		b.Append(r)
	}
	return b
}

// indexTable indexes one block's rows by a uint64 key (a widened join-column
// dict.ID, or a 64-bit row hash for DISTINCT): chains of row *indices* into
// the block, one head per slot and one next link per row. Three flat arrays
// serve any number of key groups, with no per-key allocation, and candidate
// iteration walks int32 indices. It comes in two kinds:
//   - hashed: an open-addressing table of Fibonacci-hashed keys with linear
//     probing; a slot is occupied iff its head is >= 0, so dict.NoID (Null)
//     is an ordinary key;
//   - direct (keys nil): a join build whose keys lie in a narrow span, as
//     dense dictionary IDs do, indexes head by key-min, with no hashing and
//     no stored keys. newJoinTable picks it only when the span fits in the
//     bytes the hashed table would take, so tableBytes bounds both kinds.
//
// Row indices are int32: a single partition holding more than 2^31 rows is
// beyond this engine's in-memory scale.
type indexTable struct {
	keys  []uint64
	head  []int32
	next  []int32
	shift uint
	// min is a direct table's smallest key: key k heads slot k-min.
	min uint64
}

// fibonacci is the 64-bit golden-ratio multiplier behind hashID64: the one
// hash both shuffle partitioning and index tables spread keys with.
const fibonacci = 0x9E3779B97F4A7C15

// hashID64 spreads a (widened) dictionary ID over 64 bits by golden-ratio
// multiplication. Shuffles take the top 32 bits for the partition number;
// index tables take the top bits for the slot — the same hash at both
// widths, so dense IDs spread evenly everywhere.
func hashID64(k uint64) uint64 { return k * fibonacci }

// slotBits returns log2 of a hashed table's slot count for n rows: the
// smallest power of two, at least 2, that keeps the load factor <= 0.5.
func slotBits(n int) uint {
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}

// newIndexTable returns an empty hashed table sized for n rows.
func newIndexTable(n int) *indexTable {
	bits := slotBits(n)
	t := &indexTable{
		keys:  make([]uint64, 1<<bits),
		head:  make([]int32, 1<<bits),
		next:  make([]int32, n),
		shift: 64 - bits,
	}
	for i := range t.head {
		t.head[i] = -1
	}
	return t
}

// newJoinTable returns an empty table for the rows of key column col: direct
// when the keys' span is at most three times the slot count a hashed table
// would get (a direct head costs 4 B per key in the span, a hashed slot
// 12 B), hashed otherwise. A Null key, or the sparse keys of a shuffled
// co-partition, widen the span past that.
func newJoinTable(col []dict.ID) *indexTable {
	n := len(col)
	if n == 0 {
		return newIndexTable(0)
	}
	lo, hi := col[0], col[0]
	for _, k := range col[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	if uint64(hi-lo) >= 3<<slotBits(n) {
		return newIndexTable(n)
	}
	t := &indexTable{head: make([]int32, int(hi-lo)+1), next: make([]int32, n), min: uint64(lo)}
	for i := range t.head {
		t.head[i] = -1
	}
	return t
}

// direct reports whether t is indexed by key-min rather than hashed.
func (t *indexTable) direct() bool { return t.keys == nil }

// slot returns the hashed-table slot holding key k, or the first empty slot
// of its probe sequence.
func (t *indexTable) slot(k uint64) int {
	s := int(hashID64(k) >> t.shift)
	for t.head[s] >= 0 && t.keys[s] != k {
		s++
		if s == len(t.head) {
			s = 0
		}
	}
	return s
}

// insert prepends row to key k's chain. In a direct table k must lie in
// the span the table was made for.
func (t *indexTable) insert(k uint64, row int32) {
	var s int
	if t.direct() {
		s = int(k - t.min)
	} else {
		s = t.slot(k)
		t.keys[s] = k
	}
	t.next[row] = t.head[s]
	t.head[s] = row
}

// first returns the first row index of key k's chain, or -1. Iterate with
// t.next[i]. Lookups are read-only, so one table may be probed by any
// number of goroutines concurrently. The probe calls it per row, so it is
// kept small enough to inline (hence keys != nil, not !t.direct()).
func (t *indexTable) first(k dict.ID) int32 {
	if t.keys != nil {
		return t.head[t.slot(uint64(k))]
	}
	// A direct table: keys below min wrap around to a large offset and miss
	// as keys above the span do.
	if d := uint64(k) - t.min; d < uint64(len(t.head)) {
		return t.head[d]
	}
	return -1
}

// buildJoinTable indexes block rows by their key column — a min/max pass
// to pick the table's kind, then one insert pass — and accounts the table
// against the memory budget. Rows are inserted in reverse so each chain
// iterates in build order. Returns nil when the execution is cancelled
// mid-build.
func (x *Exec) buildJoinTable(b *Block, key int) *indexTable {
	n := b.Len()
	col := b.cols[key]
	t := newJoinTable(col)
	for i := n - 1; i >= 0; i-- {
		if x.stop(n - 1 - i) {
			return nil
		}
		t.insert(uint64(col[i]), int32(i))
	}
	x.trackBytes(tableBytes(n))
	return t
}

// seen is the DISTINCT use of the table: it reports whether row i of blk
// (hashing to h) duplicates a previously admitted row — chains hold the
// admitted rows with that hash, collision-checked column-wise against the
// block — admitting it otherwise.
func (t *indexTable) seen(blk *Block, i int, h uint64) bool {
	s := t.slot(h)
	for j := t.head[s]; j >= 0; j = t.next[j] {
		if blk.rowsEqual(int(j), i) {
			return true
		}
	}
	t.keys[s] = h
	t.next[i] = t.head[s]
	t.head[s] = int32(i)
	return false
}
