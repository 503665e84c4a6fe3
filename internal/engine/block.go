package engine

import (
	"slices"

	"s2rdf/internal/dict"
)

// Block is one partition of a relation stored column-major. A block is
// dense or lazy:
//   - a dense block holds one contiguous []dict.ID per column, every column
//     n long, so operators touch only the columns they need and key hashing
//     runs over one contiguous slice;
//   - a lazy block holds row ids instead of values (see lazyCols): a join's
//     output is its pair vectors over its two inputs, and a bit-vector or
//     conditioned scan's output is its selected row numbers over the stored
//     table. Values are read through the row ids, and a column is gathered
//     contiguous only where an operator needs it so (a join key, a filter,
//     a shuffle, a stream batch), once, from the dense blocks at the bottom.
//
// Blocks are write-once: an operator appends only to the block it is
// producing and only reads its inputs' blocks, so completed blocks are
// immutable and their columns and row-id vectors may be shared freely.
//
// A nil *Block behaves as an empty block for Len.
type Block struct {
	cols [][]dict.ID
	n    int
	// lz, when set, makes the block lazy; cols is then nil.
	lz *lazyCols
}

// lazyCols is a lazy block's columns: row i of column j is row
// sel[k][i] of column src[j].col of input in[k], k = src[j].in, or row i
// when sel[k] is nil (input k's rows, in order). A negative src[j].in is an
// all-Null column (a projection of a column the input lacks). The row-id
// vectors hold no negative entry, and once the block leaves the operator
// that made it they are its own, never pooled scratch.
type lazyCols struct {
	in  [2]*Block
	sel [2][]int32
	src []colSrc
}

// colSrc locates one column of a lazy block in its inputs.
type colSrc struct{ in, col int }

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

// lazyBlock returns a lazy block of n rows over in through sel, allocated
// with its lazyCols in one piece.
func lazyBlock(n int, in [2]*Block, sel [2][]int32, src []colSrc) *Block {
	v := &struct {
		b  Block
		lz lazyCols
	}{Block{n: n}, lazyCols{in: in, sel: sel, src: src}}
	v.b.lz = &v.lz
	return &v.b
}

// joinCols locates a join's output columns in its inputs: the left
// input's la columns, then the right input's rKeep columns. A join's
// partitions share the slice.
func joinCols(la int, rKeep []int) []colSrc {
	src := make([]colSrc, 0, la+len(rKeep))
	for j := range la {
		src = append(src, colSrc{0, j})
	}
	for _, rc := range rKeep {
		src = append(src, colSrc{1, rc})
	}
	return src
}

// joinBlock is a join's output as row ids: row i is row lsel[i] of l
// followed by the right columns of row rsel[i] of r, the columns located
// by cols (joinCols). The block keeps both vectors; at most one may be nil
// (the identity): the other holds one entry per output row.
func joinBlock(l *Block, lsel []int32, r *Block, rsel []int32, cols []colSrc) *Block {
	return lazyBlock(max(len(lsel), len(rsel)), [2]*Block{l, r}, [2][]int32{lsel, rsel}, cols)
}

// ownPairs copies a join's lazy output's pair vectors out of the pooled
// scratch the probe filled, in place (the block has not been handed on
// yet), so that the scratch can go back, and returns the block.
func (b *Block) ownPairs() *Block {
	for k, sel := range b.lz.sel {
		b.lz.sel[k] = slices.Clone(sel)
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
func (b *Block) Arity() int {
	if b.lz != nil {
		return len(b.lz.src)
	}
	return len(b.cols)
}

// Col returns column j: a read-only view callers must not modify. A lazy
// block's column is gathered into a fresh slice.
func (b *Block) Col(j int) []dict.ID {
	if b.lz == nil {
		return b.cols[j]
	}
	return b.columns([]int{j})[0]
}

// Row materializes row i into a fresh slice. It allocates; hot paths read
// columns directly or reuse a buffer via CopyRow.
func (b *Block) Row(i int) Row {
	row := make(Row, b.Arity())
	b.CopyRow(row, i)
	return row
}

// CopyRow copies row i into dst (len(dst) >= Arity()).
func (b *Block) CopyRow(dst Row, i int) {
	if b.lz != nil {
		for j := range b.lz.src {
			dst[j] = b.id(j, i)
		}
		return
	}
	for j, col := range b.cols {
		dst[j] = col[i]
	}
}

// id returns row i of column j, following a lazy block's row ids down to
// the dense block the value lives in.
func (b *Block) id(j, i int) dict.ID {
	for b.lz != nil {
		c := b.lz.src[j]
		if c.in < 0 {
			return Null
		}
		if s := b.lz.sel[c.in]; s != nil {
			i = int(s[i])
		}
		b, j = b.lz.in[c.in], c.col
	}
	return b.cols[j][i]
}

// colBuf is the scratch of batch reads: the row ids and values of one
// batch of up to cancelBatch rows. Callers keep it in their own frame.
type colBuf struct {
	ids  [cancelBatch]int32
	vals [cancelBatch]dict.ID
}

// batch returns rows [lo, hi) of column j contiguous, hi-lo <= cancelBatch:
// a dense block's own slice, or a lazy block's values read through its row
// ids, composed level by level in buf, so a read at any depth allocates
// nothing. The result is valid until buf's next use.
func (b *Block) batch(j, lo, hi int, buf *colBuf) []dict.ID {
	var at []int32 // nil: rows [lo, hi) of b, in order
	for b.lz != nil {
		c := b.lz.src[j]
		if c.in < 0 {
			vals := buf.vals[:hi-lo]
			for i := range vals {
				vals[i] = Null
			}
			return vals
		}
		if s := b.lz.sel[c.in]; s != nil {
			if at == nil {
				at = s[lo:hi]
			} else {
				ids := buf.ids[:len(at)]
				for i, r := range at {
					ids[i] = s[r]
				}
				at = ids
			}
		}
		b, j = b.lz.in[c.in], c.col
	}
	col := b.cols[j]
	if at == nil {
		return col[lo:hi]
	}
	vals := buf.vals[:len(at)]
	for i, r := range at {
		vals[i] = col[r]
	}
	return vals
}

// identity reports whether sel lists the rows [0, n) in order.
func identity(sel []int32, n int) bool {
	if len(sel) != n {
		return false
	}
	for i, r := range sel {
		if r != int32(i) {
			return false
		}
	}
	return true
}

// compose returns the row ids sel picks out of ids: either one itself when
// the other is nil (the identity), else a fresh vector holding ids[sel[i]],
// or -1 where sel[i] is negative.
func compose(ids, sel []int32) []int32 {
	if ids == nil {
		return sel
	}
	if sel == nil {
		return ids
	}
	out := make([]int32, len(sel))
	for i, r := range sel {
		if r < 0 {
			out[i] = -1
		} else {
			out[i] = ids[r]
		}
	}
	return out
}

// gatherCols writes the values of columns js at rows sel — every row in
// order when sel is nil, Null where an entry is negative — into dst[k] for
// js[k], each as long as sel (or the block). A lazy block composes sel with
// the row ids of each input it reads, once per input, and gathers at the
// dense blocks at the bottom, so every value is copied once however deep
// the block is.
func (b *Block) gatherCols(dst [][]dict.ID, js []int, sel []int32) {
	if b.lz == nil {
		for k, j := range js {
			gatherCol(dst[k], b.cols[j], sel)
		}
		return
	}
	lz := b.lz
	var subBuf [8]int
	var dstBuf [8][]dict.ID
	sub, subDst := subBuf[:0], dstBuf[:0]
	for in, blk := range lz.in {
		sub, subDst = sub[:0], subDst[:0]
		for k, j := range js {
			if lz.src[j].in == in {
				sub = append(sub, lz.src[j].col)
				subDst = append(subDst, dst[k])
			}
		}
		if len(sub) > 0 {
			blk.gatherCols(subDst, sub, compose(lz.sel[in], sel))
		}
	}
	for k, j := range js {
		if lz.src[j].in < 0 {
			for i := range dst[k] {
				dst[k][i] = Null
			}
		}
	}
}

// gatherCol writes col's values at rows sel into dst (see gatherCols).
func gatherCol(dst, col []dict.ID, sel []int32) {
	if sel == nil {
		copy(dst, col)
		return
	}
	for i, r := range sel {
		if r < 0 {
			dst[i] = Null
		} else {
			dst[i] = col[r]
		}
	}
}

// allCols lists the column indices [0, n).
func allCols(n int) []int {
	js := make([]int, n)
	for j := range js {
		js[j] = j
	}
	return js
}

// columns returns columns js contiguous: a dense block's own slices, or a
// lazy block's gathered into fresh ones.
func (b *Block) columns(js []int) [][]dict.ID {
	out := make([][]dict.ID, len(js))
	if b.lz == nil {
		for k, j := range js {
			out[k] = b.cols[j]
		}
		return out
	}
	for k := range out {
		out[k] = make([]dict.ID, b.n)
	}
	b.gatherCols(out, js, nil)
	return out
}

// dense returns b with every column contiguous: b itself when it is dense,
// its rows gathered into a fresh block when it is lazy.
func (b *Block) dense() *Block {
	if b.lz == nil {
		return b
	}
	return b.gatherSel(nil)
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

// rowsEqual reports whether rows i and j of a dense block hold identical
// IDs.
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
	b.AppendRange(src, 0, src.Len())
}

// AppendRange bulk-copies rows [lo, hi) of src (same arity) into b,
// gathering them when src is lazy.
func (b *Block) AppendRange(src *Block, lo, hi int) {
	if hi <= lo {
		return
	}
	if src.lz == nil {
		for j := range b.cols {
			b.cols[j] = append(b.cols[j], src.cols[j][lo:hi]...)
		}
		b.n += hi - lo
		return
	}
	tails := make([][]dict.ID, len(b.cols))
	for j, col := range b.cols {
		col = slices.Grow(col, hi-lo)[:len(col)+hi-lo]
		b.cols[j], tails[j] = col, col[len(col)-(hi-lo):]
	}
	src.view(lo, hi).gatherCols(tails, allCols(len(tails)), nil)
	b.n += hi - lo
}

// gatherSel materializes the rows at the selected indices of b (every row
// when sel is nil) into a fresh exactly-sized dense block, one gather pass
// per column. It is the single materialization point of every
// selection-vector operator (Filter, Distinct, OrderBy, top-k winners) and
// of each stream batch.
func (b *Block) gatherSel(sel []int32) *Block {
	n := len(sel)
	if sel == nil {
		n = b.n
	}
	out := newFixedBlock(b.Arity(), n)
	b.gatherCols(out.cols, allCols(len(out.cols)), sel)
	return out
}

// gatherPairs materializes outer-join output from pair vectors: row lsel[i]
// of l concatenated with the rKeep columns of row rsel[i] of r. rsel[i] < 0
// emits Nulls in the right columns (the unmatched-left rows).
func gatherPairs(l *Block, lsel []int32, r *Block, rKeep []int, rsel []int32) *Block {
	la := l.Arity()
	out := newFixedBlock(la+len(rKeep), len(lsel))
	l.gatherCols(out.cols[:la], allCols(la), lsel)
	r.gatherCols(out.cols[la:], rKeep, rsel)
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

// buildJoinTable indexes rows by their key column — a min/max pass to
// pick the table's kind, then one insert pass — and accounts the table
// against the memory budget. Rows are inserted in reverse so each chain
// iterates in build order. Returns nil when the execution is cancelled
// mid-build.
func (x *Exec) buildJoinTable(col []dict.ID) *indexTable {
	n := len(col)
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

// seen is the DISTINCT use of the table: it reports whether row i of the
// dense block blk (hashing to h) duplicates a previously admitted row —
// chains hold the admitted rows with that hash, collision-checked
// column-wise against the block — admitting it otherwise.
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
