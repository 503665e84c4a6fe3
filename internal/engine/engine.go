// Package engine implements a hash-partitioned, multi-worker relational
// engine: the stand-in for Spark SQL in the S2RDF reproduction.
//
// Relations are horizontally partitioned collections of fixed-width rows of
// dictionary IDs; each partition is a column-major Block (one contiguous
// []dict.ID per column — see block.go), so operators run column-at-a-time:
// key hashing streams over one contiguous column, and shuffles scatter
// columns instead of re-serializing rows. Materialization is late: a join
// hands on its (build-row, probe-row) pair vectors over its two inputs, and
// a bit-vector or conditioned scan its selected row numbers over the stored
// table, as a lazy block; a column is gathered only where an operator needs
// it contiguous (a filter, a shuffle, a sort's winners, a stream batch),
// and then once; a join's key is read through the row ids in batches.
// Every equi-join is one build then probe (see joinBuild): a shuffle join
// repartitions both inputs by the hash of the join key and builds per
// co-partition on the smaller side, a broadcast join builds once over the
// gathered small side, and in both the partition tasks probe the build
// read-only on a pool of worker goroutines. A build indexes its key column
// directly by ID when the keys lie in a narrow span, as dense dictionary
// IDs do, and hashes them otherwise (see indexTable). The engine meters the
// quantities the paper's argument rests on: rows scanned, rows shuffled
// and join comparisons. Input-size reduction (what ExtVP buys) therefore
// translates directly into lower metered cost and lower wall time, just as
// on Spark.
//
// A Cluster is safe for concurrent use: any number of queries may run
// operators on it simultaneously. Each query obtains an Exec handle
// (Cluster.NewExec) carrying its own Metrics, and operators invoked through
// an Exec meter into those counters only, so concurrent queries account
// their work independently.
//
// An Exec may also carry a context.Context (Cluster.NewExecContext). Every
// operator observes cancellation at row-batch granularity: once the context
// is done, in-flight partition tasks stop after at most cancelBatch rows,
// queued partition tasks are skipped entirely, and the operator returns a
// truncated relation. Callers must treat operator output as garbage once
// Exec.Err() is non-nil — the core engine surfaces that error instead of
// the truncated result.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"s2rdf/internal/dict"
	"s2rdf/internal/fault"
)

// Null marks an unbound value in a row (produced by OPTIONAL and UNION).
const Null = dict.NoID

// Row is one tuple of dictionary IDs.
type Row []dict.ID

// Metrics counts the work performed by a single query. All fields are
// updated atomically and may be read concurrently.
type Metrics struct {
	RowsScanned atomic.Int64
	// RowsPruned counts input rows a scan eliminated without evaluating any
	// condition on them: rows outside the sort-column binary-search range
	// or the key runs. It reports savings relative to RowsScanned (the
	// logical input volume), never extra work.
	RowsPruned      atomic.Int64
	RowsShuffled    atomic.Int64
	JoinComparisons atomic.Int64
	RowsOutput      atomic.Int64
	Tasks           atomic.Int64
	// RowsSorted counts rows held in coordinator sort state: the whole
	// input for a global ORDER BY merge sort, but only the bounded heap
	// occupancy for a top-k sort — the metric that proves ORDER BY+LIMIT
	// queries no longer sort (or hold) the full result.
	RowsSorted atomic.Int64
	// BytesSpilled counts bytes written to sorted temp-file runs by joins
	// whose build partitions exceeded the per-query memory budget.
	BytesSpilled atomic.Int64
}

// Snapshot returns a plain-struct copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		RowsScanned:     m.RowsScanned.Load(),
		RowsPruned:      m.RowsPruned.Load(),
		RowsShuffled:    m.RowsShuffled.Load(),
		JoinComparisons: m.JoinComparisons.Load(),
		RowsOutput:      m.RowsOutput.Load(),
		Tasks:           m.Tasks.Load(),
		RowsSorted:      m.RowsSorted.Load(),
		BytesSpilled:    m.BytesSpilled.Load(),
	}
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	RowsScanned     int64
	RowsPruned      int64
	RowsShuffled    int64
	JoinComparisons int64
	RowsOutput      int64
	Tasks           int64
	RowsSorted      int64
	BytesSpilled    int64
}

// Sub returns the difference s - other.
func (s MetricsSnapshot) Sub(other MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		RowsScanned:     s.RowsScanned - other.RowsScanned,
		RowsPruned:      s.RowsPruned - other.RowsPruned,
		RowsShuffled:    s.RowsShuffled - other.RowsShuffled,
		JoinComparisons: s.JoinComparisons - other.JoinComparisons,
		RowsOutput:      s.RowsOutput - other.RowsOutput,
		Tasks:           s.Tasks - other.Tasks,
		RowsSorted:      s.RowsSorted - other.RowsSorted,
		BytesSpilled:    s.BytesSpilled - other.BytesSpilled,
	}
}

// Add returns the sum s + other.
func (s MetricsSnapshot) Add(other MetricsSnapshot) MetricsSnapshot {
	return MetricsSnapshot{
		RowsScanned:     s.RowsScanned + other.RowsScanned,
		RowsPruned:      s.RowsPruned + other.RowsPruned,
		RowsShuffled:    s.RowsShuffled + other.RowsShuffled,
		JoinComparisons: s.JoinComparisons + other.JoinComparisons,
		RowsOutput:      s.RowsOutput + other.RowsOutput,
		Tasks:           s.Tasks + other.Tasks,
		RowsSorted:      s.RowsSorted + other.RowsSorted,
		BytesSpilled:    s.BytesSpilled + other.BytesSpilled,
	}
}

// Cluster models the executor pool: a number of partitions (parallel tasks
// per stage) and a worker limit. Work is metered per query, through NewExec.
type Cluster struct {
	partitions int
	workers    int
}

// NewCluster returns a cluster with the given number of partitions per
// relation. partitions <= 0 selects GOMAXPROCS.
func NewCluster(partitions int) *Cluster {
	if partitions <= 0 {
		partitions = runtime.GOMAXPROCS(0)
	}
	return &Cluster{partitions: partitions, workers: runtime.GOMAXPROCS(0)}
}

// Partitions returns the partition count.
func (c *Cluster) Partitions() int { return c.partitions }

// Exec is a query-scoped execution handle on a Cluster. Operators invoked
// through an Exec meter into its own Metrics (MetricsSnapshot). Exec values
// are cheap; create one per query.
type Exec struct {
	c   *Cluster
	m   Metrics
	ctx context.Context
	// done caches ctx.Done(); nil means the context can never be cancelled
	// and all cancellation checks compile down to a nil comparison.
	done <-chan struct{}
	// yield, when non-nil, is the scheduler's pacing hook (see Yielder):
	// it is invoked at every row-batch cancellation point so a time-sliced
	// query can give up its worker slot between batches.
	yield Yielder
	// memBudget, when > 0, bounds memUsed: the bytes of intermediate block
	// and join-table state the execution accounts (SetMemBudget). Once the
	// budget trips, hash-join builds spill to sorted temp-file runs instead
	// of building in-memory tables (see spill.go).
	memBudget int64
	// spillDir hosts spill run files; empty selects os.TempDir().
	spillDir string
	// fs, when non-nil, routes spill I/O through an injectable filesystem
	// (SetFaultPolicy); nil means the real one. faults, when non-nil,
	// receives each spill operation's outcome for store health tracking.
	fs     fault.FS
	faults FaultReporter
	// memUsed is the accounted intermediate state in bytes. Blocks are
	// write-once and reclaimed only by GC, so accounting is monotonic and
	// memUsed doubles as the execution's peak (high-water) figure.
	memUsed atomic.Int64
}

// Yielder is a cooperative-scheduling hook. An execution whose context
// carries one (see WithYielder) calls Yield at every row-batch
// cancellation point; the implementation may block to pause the query
// (e.g. until a scheduler re-grants it a worker slot). Implementations
// must be safe for concurrent use: one query's partition tasks may call
// Yield from several goroutines at once. Yield must return (rather than
// block forever) once the execution's context is done, so cancellation
// can still unwind a paused query.
type Yielder interface {
	Yield()
}

// yielderKey is the context key WithYielder stores under.
type yielderKey struct{}

// WithYielder returns a copy of ctx carrying y. Executions created from
// the returned context via NewExecContext call y.Yield at every row-batch
// cancellation point.
func WithYielder(ctx context.Context, y Yielder) context.Context {
	return context.WithValue(ctx, yielderKey{}, y)
}

// NewExec returns an execution handle with its own zeroed Metrics. The
// execution is not cancellable; use NewExecContext to bind a context.
func (c *Cluster) NewExec() *Exec { return &Exec{c: c} }

// NewExecContext returns an execution handle like NewExec whose operators
// additionally observe ctx: when ctx is cancelled or its deadline passes,
// running operators stop within one row batch and return truncated output,
// and Err reports why. Callers must check Err before trusting results.
func (c *Cluster) NewExecContext(ctx context.Context) *Exec {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &Exec{c: c, ctx: ctx, done: ctx.Done()}
	if y, ok := ctx.Value(yielderKey{}).(Yielder); ok {
		x.yield = y
	}
	return x
}

// Cluster returns the underlying cluster.
func (x *Exec) Cluster() *Cluster { return x.c }

// MetricsSnapshot returns the execution's per-query counters. Planners
// snapshot it around a join to attribute shuffled rows and comparisons to
// that step.
func (x *Exec) MetricsSnapshot() MetricsSnapshot { return x.m.Snapshot() }

// SetMemBudget bounds the execution's accounted intermediate state to
// budget bytes (0 disables the budget). Block materializations and join
// tables are accounted at append/build time; once the accounted total would
// exceed the budget, hash-join builds spill their sort state to temp-file
// runs under dir (empty selects the OS temp directory) instead of building
// in-memory tables. Call it before running operators.
func (x *Exec) SetMemBudget(budget int64, dir string) {
	x.memBudget = budget
	x.spillDir = dir
}

// PeakMemBytes reports the execution's accounted intermediate state in
// bytes: every materialized block and join table, counted at append/build
// time. Accounting is monotonic (blocks are write-once, freed only by GC),
// so this is both the total and the high-water mark.
func (x *Exec) PeakMemBytes() int64 { return x.memUsed.Load() }

// trackBytes accounts n bytes of intermediate state against the budget.
func (x *Exec) trackBytes(n int64) {
	if n > 0 {
		x.memUsed.Add(n)
	}
}

// overBudget reports whether accounting extra more bytes would exceed the
// configured memory budget. Always false with no budget set.
func (x *Exec) overBudget(extra int64) bool {
	return x.memBudget > 0 && x.memUsed.Load()+extra > x.memBudget
}

// blockBytes is the accounted size of one block: its column storage, or a
// lazy block's row-id vectors.
func blockBytes(b *Block) int64 {
	if b == nil {
		return 0
	}
	width := b.Arity()
	if b.lz != nil {
		width = 0
		for _, s := range b.lz.sel {
			if s != nil {
				width++
			}
		}
	}
	return int64(b.Len()) * int64(width) * int64(idBytes)
}

// idBytes is the storage width of one dict.ID, and of one int32 row id.
const idBytes = 4

// trackRelation accounts every partition block of a freshly materialized
// relation. Operators that share their input's column slices (Project,
// Union) do not call it — sharing allocates nothing new.
func (x *Exec) trackRelation(r *Relation) {
	var n int64
	for _, p := range r.Parts {
		n += blockBytes(p)
	}
	x.trackBytes(n)
}

// tableBytes is the accounted size of an in-memory join table over n rows,
// of either kind: a hashed table's keys (8 B) and heads (4 B) for its
// power-of-two slot array at load factor <= 0.5, plus one 4 B chain link
// per row. A direct table is built only when its heads (4 B per key in its
// span) fit in those 12 B per slot, so this bounds it too.
func tableBytes(n int) int64 {
	return int64(12)<<slotBits(n) + int64(n)*4
}

// Err returns the error of the execution's context (context.Canceled or
// context.DeadlineExceeded), or nil while execution may proceed. Operator
// output is only meaningful when Err returns nil.
func (x *Exec) Err() error {
	if x.ctx == nil {
		return nil
	}
	return x.ctx.Err()
}

// Cancelled reports whether the execution's context is done. It is also
// the scheduler pacing point: when the execution carries a Yielder it is
// invoked first (and may block until the query is re-granted a slot), so
// every cancellation poll doubles as a yield point.
func (x *Exec) Cancelled() bool {
	if x.yield != nil {
		x.yield.Yield()
	}
	if x.done == nil {
		return false
	}
	select {
	case <-x.done:
		return true
	default:
		return false
	}
}

// cancelBatch is the row granularity of cancellation checks inside operator
// loops: the context is polled once per cancelBatch rows, keeping the check
// off the per-row hot path while bounding how much work a cancelled query
// can still perform per partition task.
const cancelBatch = 1024

// stop reports whether execution is cancelled, polling the context (and
// yielding to the scheduler, see Cancelled) only on row counts that are
// multiples of cancelBatch. Row loops call it with their running row
// counter.
func (x *Exec) stop(rows int) bool {
	if x.done == nil && x.yield == nil {
		return false
	}
	return rows%cancelBatch == 0 && x.Cancelled()
}

// StopAt is the exported form of the operators' row-batch cancellation
// poll, for coordinator-side loops outside this package (aggregation,
// result decoding): it reports cancellation only on row counts that are
// multiples of the engine's batch size, keeping the check off the per-row
// hot path and the granularity in one place.
func (x *Exec) StopAt(rows int) bool { return x.stop(rows) }

// AddRowsScanned adds n, which may be negative, to the scanned-row meter:
// a wide-table scan re-weights what the narrow Scan counted to the cells
// it read.
func (x *Exec) AddRowsScanned(n int64) { x.m.RowsScanned.Add(n) }

// AddRowsPruned adds n, which may be negative, to the pruned-row meter,
// re-weighted the same way.
func (x *Exec) AddRowsPruned(n int64) { x.m.RowsPruned.Add(n) }

// The operators' meters, one per Metrics field.
func (x *Exec) addShuffled(n int64)     { x.m.RowsShuffled.Add(n) }
func (x *Exec) addComparisons(n int64)  { x.m.JoinComparisons.Add(n) }
func (x *Exec) addOutput(n int64)       { x.m.RowsOutput.Add(n) }
func (x *Exec) addTasks(n int64)        { x.m.Tasks.Add(n) }
func (x *Exec) addRowsSorted(n int64)   { x.m.RowsSorted.Add(n) }
func (x *Exec) addBytesSpilled(n int64) { x.m.BytesSpilled.Add(n) }

// parallel runs fn(p) for p in [0, n) on the worker pool, metering one task
// per invocation, and waits. Once the execution's context is done, queued
// partition tasks are skipped (running ones stop on their own row-batch
// checks), so a cancelled query releases its workers promptly.
//
// A panic inside a partition task does not kill the process: each worker
// recovers, the first panic is captured with its stack, remaining queued
// partitions are skipped, and after every worker has returned the panic is
// re-raised on the coordinator as a *PanicError. It then unwinds the
// query's own call stack, where the per-query recovery boundary
// (core.ExecStream / Stream.Next) converts it to an internal error.
func (x *Exec) parallel(n int, fn func(p int)) {
	x.addTasks(int64(n))
	workers := x.c.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for p := 0; p < n; p++ {
			if x.Cancelled() {
				return
			}
			// A panic here is already on the coordinator stack and unwinds
			// to the query boundary directly.
			fn(p)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		mu       sync.Mutex
		pe       *PanicError
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if pe == nil {
						if p, ok := r.(*PanicError); ok {
							pe = p
						} else {
							pe = &PanicError{Value: r, Stack: debug.Stack()}
						}
					}
					mu.Unlock()
					panicked.Store(true)
				}
			}()
			for {
				p := int(next.Add(1)) - 1
				if p >= n || panicked.Load() || x.Cancelled() {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
	if pe != nil {
		panic(pe)
	}
}

// Relation is a horizontally partitioned table with named columns. Each
// partition is a column-major Block; a nil entry in Parts is an empty
// partition (left behind when a cancelled execution skips a partition task).
type Relation struct {
	Schema []string
	Parts  []*Block
	// keyCol is the column index the relation is hash-partitioned by,
	// or -1 when the partitioning is arbitrary (e.g. block-partitioned
	// scan output). Joins use it to skip redundant shuffles.
	keyCol int
}

// NumRows returns the total row count across partitions.
func (r *Relation) NumRows() int {
	n := 0
	for _, p := range r.Parts {
		n += p.Len()
	}
	return n
}

// ColIndex returns the index of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Schema {
		if c == name {
			return i
		}
	}
	return -1
}

// DistinctKeys returns the sorted distinct values of column col: the key
// set an intermediate pushes into the scan it will be joined with
// (ScanSpec.Keys). The result is non-nil even for an empty relation.
func (r *Relation) DistinctKeys(col int) []dict.ID {
	keys := make([]dict.ID, 0, r.NumRows())
	for _, p := range r.Parts {
		if p.Len() > 0 {
			keys = append(keys, p.Col(col)...)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// SoleKey reports the value every row of column col holds, if there is
// exactly one. It stops at the first row that differs, so a many-valued
// column costs a short walk instead of a sort.
func (r *Relation) SoleKey(col int) (dict.ID, bool) {
	var key dict.ID
	seen := false
	for _, p := range r.Parts {
		if p.Len() == 0 {
			continue
		}
		for i := range p.Len() {
			if v := p.id(col, i); !seen {
				key, seen = v, true
			} else if v != key {
				return 0, false
			}
		}
	}
	return key, seen
}

// Rows materializes all rows into one slice (coordinator-side collect),
// filled column-wise from one backing buffer. It exists for tests and
// tools; hot paths iterate columns directly or via EachRow.
func (r *Relation) Rows() []Row {
	n := r.NumRows()
	arity := len(r.Schema)
	out := make([]Row, n)
	buf := make([]dict.ID, n*arity)
	base := 0
	for _, p := range r.Parts {
		pn := p.Len()
		if pn == 0 {
			continue
		}
		for j, col := range p.dense().cols {
			for i, v := range col {
				buf[(base+i)*arity+j] = v
			}
		}
		base += pn
	}
	for i := range out {
		out[i] = buf[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return out
}

// EachRow calls fn for every row in partition order with a running global
// index and a view of the row. fn returning false stops the iteration. The
// row view is a scratch buffer reused across calls: fn must not retain or
// modify it. This is the allocation-free replacement for ranging over
// Rows().
func (r *Relation) EachRow(fn func(i int, row Row) bool) {
	scratch := make(Row, len(r.Schema))
	i := 0
	for _, p := range r.Parts {
		if p.Len() > 0 {
			p = p.dense()
		}
		for j, n := 0, p.Len(); j < n; j++ {
			p.CopyRow(scratch, j)
			if !fn(i, scratch) {
				return
			}
			i++
		}
	}
}

// gather concatenates all partitions into one block (coordinator-side
// collect for operators that need the whole relation in place). When a
// single partition holds every row it is shared as-is, dense or lazy:
// blocks are write-once, so no copy is needed. Otherwise the rows are
// gathered into one dense block.
func (r *Relation) gather() *Block {
	var only *Block
	populated := 0
	for _, p := range r.Parts {
		if p != nil && p.Len() > 0 {
			only = p
			populated++
		}
	}
	if populated == 1 {
		return only
	}
	out := NewBlock(len(r.Schema), r.NumRows())
	for _, p := range r.Parts {
		if p != nil {
			out.AppendBlock(p)
		}
	}
	return out
}

// gatherSide gathers the side of a join that every partition of the other
// side reads whole (a broadcast or crossed relation), accounting the block
// when the gather had to concatenate: a lone populated partition is shared
// as-is and was accounted when it was made.
func (x *Exec) gatherSide(r *Relation) *Block {
	b := r.gather()
	if !slices.Contains(r.Parts, b) {
		x.trackBytes(blockBytes(b))
	}
	return b
}

// newRelation allocates an empty relation with n partitions.
func newRelation(schema []string, n int) *Relation {
	return &Relation{Schema: schema, Parts: make([]*Block, n), keyCol: -1}
}

// splitRange returns the half-open sub-range of [0, n) assigned to partition
// p of parts. Sizes differ by at most one row: the remainder of n/parts is
// spread over the leading partitions (the previous ceil-division chunking
// left the trailing partitions systematically empty whenever n%parts was
// small relative to parts).
func splitRange(n, parts, p int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = p * base
	if p < rem {
		lo += p
	} else {
		lo += rem
	}
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// FromRows builds a relation from a row slice, block-partitioned. It is the
// constructor for coordinator-side row sets; the rows are copied into
// column-major blocks.
func (x *Exec) FromRows(schema []string, rows []Row) *Relation {
	parts := x.c.partitions
	rel := newRelation(schema, parts)
	if len(rows) == 0 {
		return rel
	}
	arity := len(schema)
	for p := 0; p < parts; p++ {
		lo, hi := splitRange(len(rows), parts, p)
		if lo < hi {
			rel.Parts[p] = blockOfRows(arity, rows[lo:hi])
		}
	}
	x.trackRelation(rel)
	return rel
}

// Filter keeps the rows satisfying pred. The predicate receives a reused
// scratch row and must not retain or modify it. A lazy partition is
// gathered first; survivors are tracked in a selection vector and
// materialized once, column-wise.
func (x *Exec) Filter(r *Relation, pred func(Row) bool) *Relation {
	out := newRelation(r.Schema, len(r.Parts))
	out.keyCol = r.keyCol
	arity := len(r.Schema)
	x.parallel(len(r.Parts), func(p int) {
		src := r.Parts[p]
		n := src.Len()
		if n == 0 {
			out.Parts[p] = NewBlock(arity, 0)
			return
		}
		src = src.dense()
		sel := make([]int32, 0, n)
		scratch := make(Row, arity)
		for i := 0; i < n; i++ {
			if x.stop(i) {
				break
			}
			src.CopyRow(scratch, i)
			if pred(scratch) {
				sel = append(sel, int32(i))
			}
		}
		out.Parts[p] = src.gatherSel(sel)
	})
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// Project keeps the named columns, in order. Blocks are write-once, so the
// output shares the input's column slices, or a lazy block's row ids,
// outright — a projection moves no data; columns absent from the input
// become one shared Null column. The partitioning column survives
// projection when it is kept.
func (x *Exec) Project(r *Relation, cols []string) *Relation {
	idx := make([]int, len(cols))
	for i, name := range cols {
		idx[i] = r.ColIndex(name)
	}
	out := newRelation(cols, len(r.Parts))
	if r.keyCol >= 0 {
		for j, ci := range idx {
			if ci == r.keyCol {
				out.keyCol = j
				break
			}
		}
	}
	x.parallel(len(r.Parts), func(p int) {
		src := r.Parts[p]
		n := src.Len()
		if n == 0 {
			out.Parts[p] = NewBlock(len(idx), 0)
			return
		}
		if lz := src.lz; lz != nil {
			cs := make([]colSrc, len(idx))
			for j, ci := range idx {
				cs[j] = colSrc{in: -1}
				if ci >= 0 {
					cs[j] = lz.src[ci]
				}
			}
			out.Parts[p] = lazyBlock(n, lz.in, lz.sel, cs)
			return
		}
		blk := &Block{cols: make([][]dict.ID, len(idx)), n: n}
		var nulls []dict.ID
		for j, ci := range idx {
			if ci < 0 {
				if nulls == nil {
					nulls = nullColumn(n)
				}
				blk.cols[j] = nulls
			} else {
				blk.cols[j] = src.cols[ci][:n:n]
			}
		}
		out.Parts[p] = blk
	})
	x.addOutput(int64(out.NumRows()))
	return out
}

// shuffle repartitions r by the hash of column key, column-at-a-time: one
// pass over the key column tags every row with its target and counts
// bucket sizes, then each column is scattered into exactly-sized dense
// bucket blocks, a lazy block's read in batches through its row ids
// (Block.batch). It meters every moved row. When the relation is already
// partitioned by that column the shuffle is skipped (mirroring Spark's
// co-partitioning optimization).
func (x *Exec) shuffle(r *Relation, key int) *Relation {
	c := x.c
	if r.keyCol == key && len(r.Parts) == c.partitions {
		return r
	}
	n := len(r.Parts)
	arity := len(r.Schema)
	parts := uint64(c.partitions)
	buckets := make([][]*Block, n)
	x.parallel(n, func(p int) {
		src := r.Parts[p]
		rows := src.Len()
		if rows == 0 {
			return
		}
		// Pass 1: hash the key column, batch by batch, tagging each row
		// with its target partition and counting bucket sizes. m tracks how
		// many rows were tagged before a cancellation cut the pass short.
		var buf colBuf
		tags := make([]int32, rows)
		counts := make([]int32, c.partitions)
		m := 0
		for lo := 0; lo < rows; lo += cancelBatch {
			if x.stop(lo) {
				break
			}
			for i, k := range src.batch(key, lo, min(lo+cancelBatch, rows), &buf) {
				t := int32((hashID64(uint64(k)) >> 32) % parts)
				tags[lo+i] = t
				counts[t]++
			}
			m = min(lo+cancelBatch, rows)
		}
		// Pass 2: scatter each column into exactly-sized bucket blocks.
		// cursor[i] is row i's position within its bucket, precomputed so
		// every column pass writes to the same layout.
		local := make([]*Block, c.partitions)
		for t, cnt := range counts {
			if cnt > 0 {
				local[t] = newFixedBlock(arity, int(cnt))
			}
		}
		cursor := make([]int32, c.partitions)
		pos := make([]int32, m)
		for i := 0; i < m; i++ {
			t := tags[i]
			pos[i] = cursor[t]
			cursor[t]++
		}
		for j := 0; j < arity; j++ {
			for lo := 0; lo < m; lo += cancelBatch {
				for i, v := range src.batch(j, lo, min(lo+cancelBatch, m), &buf) {
					local[tags[lo+i]].cols[j][pos[lo+i]] = v
				}
			}
		}
		if arity == 0 {
			// Zero-width rows still move: bucket lengths carry the counts.
			for t, cnt := range counts {
				if cnt > 0 {
					local[t].n = int(cnt)
				}
			}
		}
		buckets[p] = local
	})
	x.addShuffled(int64(r.NumRows()))
	out := newRelation(r.Schema, c.partitions)
	out.keyCol = key
	x.parallel(c.partitions, func(t int) {
		total := 0
		for p := 0; p < n; p++ {
			if buckets[p] != nil {
				total += buckets[p][t].Len()
			}
		}
		rows := NewBlock(arity, total)
		for p := 0; p < n; p++ {
			if buckets[p] == nil {
				continue // source task skipped after cancellation
			}
			if b := buckets[p][t]; b != nil {
				rows.AppendBlock(b)
			}
		}
		out.Parts[t] = rows
	})
	x.trackRelation(out)
	return out
}

// sharedCols returns the positions of columns common to both schemas.
func sharedCols(left, right []string) (lIdx, rIdx []int) {
	for i, name := range left {
		for j, rname := range right {
			if name == rname {
				lIdx = append(lIdx, i)
				rIdx = append(rIdx, j)
				break
			}
		}
	}
	return lIdx, rIdx
}

// JoinStrategy selects the physical algorithm for one join. The planner in
// internal/core picks it per join from the statistics-estimated side sizes.
type JoinStrategy int

const (
	// StrategyShuffle repartitions both sides by the join key.
	StrategyShuffle JoinStrategy = iota
	// StrategyBroadcast replicates the smaller side (for LeftJoinWith:
	// always the right side) to every partition of the other.
	StrategyBroadcast
)

// String returns the strategy name as reported in explain output.
func (s JoinStrategy) String() string {
	switch s {
	case StrategyShuffle:
		return "shuffle"
	case StrategyBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("JoinStrategy(%d)", int(s))
}

// JoinWith computes the natural join of left and right on all shared
// columns under an explicit physical strategy: StrategyBroadcast replicates
// whichever side is smaller, StrategyShuffle repartitions both sides. Its
// partitions are lazy: each holds its pair vectors over its two inputs.
// With no shared columns it degenerates to a cross join (metered but
// discouraged; the query planner avoids it).
func (x *Exec) JoinWith(left, right *Relation, strat JoinStrategy) *Relation {
	lIdx, rIdx := sharedCols(left.Schema, right.Schema)
	if len(lIdx) == 0 {
		return x.cross(left, right, nil, false)
	}
	out, pairs := x.innerJoin(left, right, lIdx, rIdx, strat)
	for p, sc := range pairs {
		if sc != nil {
			out.Parts[p] = out.Parts[p].ownPairs()
			sc.put()
		}
	}
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// innerJoin runs the inner join of left and right on the columns lIdx/rIdx
// under strat: broadcast the smaller side, or shuffle both sides by the
// first join column and, per co-partition, build on the smaller side and
// probe with the other, checking the remaining join columns during the
// probe. Partition p's output is a lazy block whose pair vectors are the
// pooled scratch pairs[p] (nil where the partition is empty): the caller
// owns them, and copies them out (ownPairs) before the block leaves it or
// reduces the block and puts them back (JoinTopK).
func (x *Exec) innerJoin(left, right *Relation, lIdx, rIdx []int, strat JoinStrategy) (*Relation, []*scratch) {
	if strat == StrategyBroadcast {
		return x.broadcastJoin(left, right, lIdx, rIdx)
	}
	l := x.shuffle(left, lIdx[0])
	r := x.shuffle(right, rIdx[0])
	out := newRelation(joinSchema(left.Schema, right.Schema, rIdx), x.c.partitions)
	out.keyCol = lIdx[0]
	pairs := make([]*scratch, len(out.Parts))
	cols := joinCols(len(left.Schema), keepCols(len(right.Schema), rIdx))
	x.parallel(len(out.Parts), func(p int) {
		lblk, rblk := l.Parts[p], r.Parts[p]
		if lblk.Len() == 0 || rblk.Len() == 0 {
			out.Parts[p] = newFixedBlock(len(out.Schema), 0)
			return
		}
		buildLeft := lblk.Len() < rblk.Len()
		bblk, bIdx, src, pIdx := rblk, rIdx, lblk, lIdx
		if buildLeft {
			bblk, bIdx, src, pIdx = lblk, lIdx, rblk, rIdx
		}
		b := x.build(bblk, bIdx)
		defer b.close()
		out.Parts[p], pairs[p] = x.probeJoin(b, src, pIdx, buildLeft, cols)
	})
	return out, pairs
}

// LeftJoinWith computes the left outer join (SPARQL OPTIONAL) under an
// explicit physical strategy: unmatched left rows survive with Null in the
// right-only columns, and an optional post-join predicate (the OPTIONAL
// group's filter) is applied to matched rows. Only the right side of an
// outer join can be broadcast (every left row must appear exactly once, so
// left rows stay partitioned in place).
func (x *Exec) LeftJoinWith(left, right *Relation, pred func(Row) bool, strat JoinStrategy) *Relation {
	lIdx, rIdx := sharedCols(left.Schema, right.Schema)
	if len(lIdx) == 0 {
		// Cross-style OPTIONAL: every left row pairs with every right row
		// that satisfies pred; a left row none of whose pairs survive is
		// padded — per row, as SPARQL semantics require (an all-or-nothing
		// fallback would drop unmatched left rows whenever any other left
		// row matched).
		return x.cross(left, right, pred, true)
	}
	outSchema := joinSchema(left.Schema, right.Schema, rIdx)
	rKeep := keepCols(len(right.Schema), rIdx)
	var out *Relation
	if strat == StrategyBroadcast {
		// The right side is gathered and built once, and every left
		// partition probes it in place: left rows never move, so the output
		// keeps the left partitioning. Replicating the right side to every
		// left partition is the broadcast cost, as in the inner join.
		rblk := x.gatherSide(right)
		x.addShuffled(int64(rblk.Len()) * int64(len(left.Parts)))
		b := x.build(rblk, rIdx)
		defer b.close()
		out = newRelation(outSchema, len(left.Parts))
		out.keyCol = left.keyCol
		x.parallel(len(out.Parts), func(p int) {
			out.Parts[p] = x.probeOuter(left.Parts[p], b, lIdx, rKeep, len(outSchema), pred)
		})
	} else {
		l := x.shuffle(left, lIdx[0])
		r := x.shuffle(right, rIdx[0])
		out = newRelation(outSchema, x.c.partitions)
		out.keyCol = lIdx[0]
		x.parallel(len(out.Parts), func(p int) {
			// A co-partition with no left rows has nothing to pad or match:
			// its right side is never built.
			if l.Parts[p].Len() == 0 {
				out.Parts[p] = newFixedBlock(len(outSchema), 0)
				return
			}
			rblk := r.Parts[p]
			if rblk == nil {
				rblk = NewBlock(len(right.Schema), 0)
			}
			b := x.build(rblk, rIdx)
			defer b.close()
			out.Parts[p] = x.probeOuter(l.Parts[p], b, lIdx, rKeep, len(outSchema), pred)
		})
	}
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// joinBuild is one side of a hash join made ready to probe: an in-memory
// index table over its first key column or, once the execution's memory
// budget has tripped, its (key tuple, row) entries spilled to sorted runs
// (see spill.go). A join builds once — over the gathered small side of a
// broadcast, over the smaller side of each co-partition of a shuffle — and
// its partition tasks probe the build read-only, concurrently.
type joinBuild struct {
	blk *Block
	// keys are blk's key columns, contiguous (gathered when blk is lazy).
	keys [][]dict.ID
	// ht is the in-memory table; nil when the build spilled or was
	// cancelled mid-way.
	ht   *indexTable
	runs *spillRuns
	// fallback builds a spilled build's in-memory table once, for the
	// probes whose run reads fail, however many fail at once.
	fallback func() *indexTable
}

// build prepares blk, keyed by its columns idx, for probing. A disk
// failure while spilling leaves the build in memory: the budget is
// best-effort, the result is not.
func (x *Exec) build(blk *Block, idx []int) *joinBuild {
	b := &joinBuild{blk: blk, keys: blk.columns(idx)}
	if x.overBudget(tableBytes(blk.Len())) {
		if b.runs, _ = x.buildSpillRuns(b.keys); b.runs != nil {
			b.fallback = sync.OnceValue(func() *indexTable { return x.buildJoinTable(b.keys[0]) })
			return b
		}
	}
	b.ht = x.buildJoinTable(b.keys[0])
	return b
}

// close releases the spilled runs, if any.
func (b *joinBuild) close() {
	if b.runs != nil {
		b.runs.close()
	}
}

// probe matches every row of src, keyed by its columns pIdx, against b,
// appending the (build row, probe row) pairs to bsel and psel, which grow
// only as far as the matches go, and metering the comparisons. Pairs come
// in probe-row order, each row's matches in build order, whichever kind
// the build is. A spilled build whose runs fail to read is probed through
// the in-memory table instead; a build cancelled mid-way matches nothing.
func (x *Exec) probe(b *joinBuild, src *Block, pIdx []int, bsel, psel []int32) ([]int32, []int32) {
	ht := b.ht
	if b.runs != nil {
		if bs, ps, ok := x.spillProbePairs(b.runs, src.columns(pIdx), bsel, psel); ok {
			return bs, ps
		}
		ht = b.fallback()
	}
	if ht == nil {
		return bsel, psel
	}
	var comparisons int64
	// The probe walks src in cancelBatch-row batches, polling once per
	// batch, with the batch's first key column contiguous (Block.batch). A
	// single-column key, as almost every join has, takes a loop of its own
	// without the compare over further key columns: the general loop emits
	// the same pairs for it, but BenchmarkAnalyticTopK sweeps about 9%
	// slower through it (docs/reproduction.md, table 7).
	var buf colBuf
	for lo, n := 0, src.Len(); lo < n; lo += cancelBatch {
		if x.stop(lo) {
			break
		}
		key := src.batch(pIdx[0], lo, min(lo+cancelBatch, n), &buf)
		if len(pIdx) == 1 {
			for i, k := range key {
				for bi := ht.first(k); bi >= 0; bi = ht.next[bi] {
					comparisons++
					bsel = append(bsel, bi)
					psel = append(psel, int32(lo+i))
				}
			}
			continue
		}
		for i, k := range key {
		cand:
			for bi := ht.first(k); bi >= 0; bi = ht.next[bi] {
				comparisons++
				for c := 1; c < len(pIdx); c++ {
					if src.id(pIdx[c], lo+i) != b.keys[c][bi] {
						continue cand
					}
				}
				bsel = append(bsel, bi)
				psel = append(psel, int32(lo+i))
			}
		}
	}
	x.addComparisons(comparisons)
	return bsel, psel
}

// probeJoin probes b with src, keyed by its columns pIdx, and returns the
// matches as an inner join's lazy output: its pair vectors, in the pooled
// scratch it also returns (nil when nothing matched), over the two inputs.
// The build side leads the output when it is the join's left input; cols
// locate the output's columns (joinCols).
func (x *Exec) probeJoin(b *joinBuild, src *Block, pIdx []int, buildLeft bool, cols []colSrc) (*Block, *scratch) {
	sc := getScratch()
	bsel, psel := x.probe(b, src, pIdx, sc.a, sc.b)
	sc.a, sc.b = bsel, psel
	if len(psel) == 0 {
		sc.put()
		return newFixedBlock(len(cols), 0), nil
	}
	if identity(psel, src.Len()) {
		psel = nil // every probe row matched once: src's rows, in order
	}
	if buildLeft {
		return joinBlock(b.blk, bsel, src, psel, cols), sc
	}
	return joinBlock(src, psel, b.blk, bsel, cols), sc
}

// probeOuter left-outer-joins one left partition to the right side's build:
// the probe's pairs, filtered by pred when set, plus an rsel = -1 entry for
// each left row none of whose pairs survive, materialized in one gather
// (the -1 entries become Nulls in the rKeep columns).
func (x *Exec) probeOuter(lblk *Block, b *joinBuild, lIdx, rKeep []int, outArity int, pred func(Row) bool) *Block {
	n := lblk.Len()
	if n == 0 {
		return newFixedBlock(outArity, 0)
	}
	sc, out := getScratch(), getScratch()
	defer sc.put()
	defer out.put()
	rsel, lsel := x.probe(b, lblk, lIdx, sc.a, sc.b)
	sc.a, sc.b = rsel, lsel
	// row assembles a matched pair for pred; it is reused across pairs, so
	// pred must not retain it.
	var row Row
	if pred != nil {
		row = make(Row, outArity)
	}
	la := lblk.Arity()
	outL, outR := out.a, out.b
	j := 0
	for i := int32(0); int(i) < n; i++ {
		matched := false
		for ; j < len(lsel) && lsel[j] == i; j++ {
			if pred != nil {
				lblk.CopyRow(row, int(i))
				for k, rc := range rKeep {
					row[la+k] = b.blk.id(rc, int(rsel[j]))
				}
				if !pred(row) {
					continue
				}
			}
			outL, outR = append(outL, i), append(outR, rsel[j])
			matched = true
		}
		if !matched {
			outL, outR = append(outL, i), append(outR, -1)
		}
	}
	out.a, out.b = outL, outR
	return gatherPairs(lblk, outL, b.blk, rKeep, outR)
}

// dupMask marks the right-side columns that also appear in the join key
// (and are therefore dropped from the output).
func dupMask(n int, rIdx []int) []bool {
	mask := make([]bool, n)
	for _, i := range rIdx {
		mask[i] = true
	}
	return mask
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func joinSchema(left, right []string, rIdx []int) []string {
	dup := dupMask(len(right), rIdx)
	out := make([]string, 0, len(left)+len(right)-countTrue(dup))
	out = append(out, left...)
	for i, name := range right {
		if !dup[i] {
			out = append(out, name)
		}
	}
	return out
}

// cross is the nested-loop join of two relations with no shared column:
// every left row pairs with every row of the gathered right block that
// passes pred (nil passes all). Under outer, a left row none of whose
// pairs survive is kept once, padded with Nulls. Output is built
// column-at-a-time: the left values are run-length extended and, with no
// predicate, the right block's columns are appended wholesale.
// Cancellation is polled between left rows at cancelBatch output
// granularity, truncating the block consistently.
func (x *Exec) cross(left, right *Relation, pred func(Row) bool, outer bool) *Relation {
	outSchema := append(append([]string{}, left.Schema...), right.Schema...)
	rblk := x.gatherSide(right).dense()
	rn := rblk.Len()
	x.addShuffled(int64(rn) * int64(len(left.Parts)))
	out := newRelation(outSchema, len(left.Parts))
	lA := len(left.Schema)
	x.parallel(len(left.Parts), func(p int) {
		src := left.Parts[p]
		ln := src.Len()
		rows := NewBlock(len(outSchema), 0)
		out.Parts[p] = rows
		if ln == 0 || rn == 0 && !outer {
			return
		}
		src = src.dense()
		var row Row
		var rsel []int32
		if pred != nil {
			row = make(Row, len(outSchema))
			rsel = make([]int32, 0, rn)
		}
		produced, next := 0, 0
		for i := 0; i < ln; i++ {
			if produced >= next {
				if x.Cancelled() {
					return
				}
				next = produced + cancelBatch
			}
			produced += rn
			// m right rows pair with left row i: all of them, or those
			// collected in rsel that pass pred.
			m := rn
			if pred != nil {
				rsel = rsel[:0]
				src.CopyRow(row[:lA], i)
				for j := 0; j < rn; j++ {
					rblk.CopyRow(row[lA:], j)
					if pred(row) {
						rsel = append(rsel, int32(j))
					}
				}
				m = len(rsel)
			}
			if m == 0 && !outer {
				continue
			}
			for j := 0; j < lA; j++ {
				v := src.cols[j][i]
				col := rows.cols[j]
				for k := 0; k < max(m, 1); k++ {
					col = append(col, v)
				}
				rows.cols[j] = col
			}
			for j, rc := range rblk.cols {
				col := rows.cols[lA+j]
				switch {
				case m == 0:
					col = append(col, Null)
				case pred == nil:
					col = append(col, rc...)
				default:
					for _, rj := range rsel {
						col = append(col, rc[rj])
					}
				}
				rows.cols[lA+j] = col
			}
			rows.n += max(m, 1)
		}
	})
	x.trackRelation(out)
	x.addComparisons(int64(left.NumRows()) * int64(rn))
	x.addOutput(int64(out.NumRows()))
	return out
}

// Union concatenates two relations, aligning columns by name; columns
// missing on one side become Null. The output shares the (immutable)
// aligned input blocks, so a same-schema union moves no rows; note its
// partition count is the sum of the inputs', which may exceed the
// cluster's — downstream joins re-shuffle it (the co-partitioning fast
// path requires the cluster's partition count).
func (x *Exec) Union(a, b *Relation) *Relation {
	schema := append([]string{}, a.Schema...)
	for _, name := range b.Schema {
		if indexOf(schema, name) < 0 {
			schema = append(schema, name)
		}
	}
	align := func(r *Relation) *Relation {
		if equalSchema(r.Schema, schema) {
			return r
		}
		return x.Project(r, schema)
	}
	a2, b2 := align(a), align(b)
	out := newRelation(schema, len(a2.Parts)+len(b2.Parts))
	copy(out.Parts, a2.Parts)
	copy(out.Parts[len(a2.Parts):], b2.Parts)
	x.addOutput(int64(out.NumRows()))
	return out
}

// fnv1a constants of Distinct's row-hash pass.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Distinct removes duplicate rows (hash-shuffled on the first column so
// deduplication runs partition-parallel). Row hashes are computed
// column-at-a-time into one vector (FNV-1a folding each 32-bit ID), then an
// open-addressing table dedups by hash with column-wise collision checks;
// survivors are tracked in a selection vector and gathered once.
func (x *Exec) Distinct(r *Relation) *Relation {
	if len(r.Schema) == 0 {
		// Degenerate: at most one empty row.
		out := newRelation(r.Schema, 1)
		if r.NumRows() > 0 {
			b := NewBlock(0, 0)
			b.Append(Row{})
			out.Parts[0] = b
		}
		return out
	}
	s := x.shuffle(r, 0)
	out := newRelation(r.Schema, len(s.Parts))
	out.keyCol = 0
	x.parallel(len(s.Parts), func(p int) {
		src := s.Parts[p]
		n := src.Len()
		if n == 0 {
			out.Parts[p] = NewBlock(len(r.Schema), 0)
			return
		}
		src = src.dense()
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = fnvOffset64
		}
		for _, col := range src.cols {
			for i, v := range col {
				hashes[i] = (hashes[i] ^ uint64(v)) * fnvPrime64
			}
		}
		seen := newIndexTable(n)
		sel := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if x.stop(i) {
				break
			}
			if !seen.seen(src, i, hashes[i]) {
				sel = append(sel, int32(i))
			}
		}
		out.Parts[p] = src.gatherSel(sel)
	})
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// Limit returns at most n rows after skipping offset rows, copied out
// column-wise per overlapping partition range. A negative offset means no
// offset; a negative n means no limit; n == 0 yields an empty relation that
// keeps the input schema.
func (x *Exec) Limit(r *Relation, offset, n int) *Relation {
	total := r.NumRows()
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	keep := total - offset
	if n >= 0 && n < keep {
		keep = n
	}
	out := newRelation(r.Schema, 1)
	rows := NewBlock(len(r.Schema), keep)
	out.Parts[0] = rows
	skip := offset
	for _, p := range r.Parts {
		pn := p.Len()
		if pn == 0 {
			continue
		}
		if skip >= pn {
			skip -= pn
			continue
		}
		take := pn - skip
		if rem := keep - rows.Len(); take > rem {
			take = rem
		}
		rows.AppendRange(p, skip, skip+take)
		skip = 0
		if rows.Len() >= keep {
			break
		}
	}
	x.trackRelation(out)
	return out
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func equalSchema(a, b []string) bool {
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
