// Package engine implements a hash-partitioned, multi-worker relational
// engine: the stand-in for Spark SQL in the S2RDF reproduction.
//
// Relations are horizontally partitioned collections of fixed-width rows of
// dictionary IDs; each partition is a column-major Block (one contiguous
// []dict.ID per column — see block.go), so operators run column-at-a-time:
// key hashing streams over one contiguous column, joins emit (build-row,
// probe-row) index pair vectors and gather output columns exactly once, and
// shuffles scatter columns instead of re-serializing rows. Joins repartition
// ("shuffle") both inputs by the hash of the join key and then run
// per-partition hash joins — open-addressing index tables over the build
// block — on a pool of worker goroutines. The engine meters the quantities
// the paper's argument rests on: rows scanned, rows shuffled and join
// comparisons. Input-size reduction (what ExtVP buys) therefore translates
// directly into lower metered cost and lower wall time, just as on Spark.
//
// A Cluster is safe for concurrent use: any number of queries may run
// operators on it simultaneously. Each query obtains an Exec handle
// (Cluster.NewExec) carrying its own Metrics; operators invoked through an
// Exec meter into both the per-query counters and the cluster-wide
// aggregate, so concurrent queries account their work independently while
// the aggregate remains a faithful total.
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

// Metrics counts the work performed by a cluster or a single query. All
// fields are updated atomically and may be read concurrently.
type Metrics struct {
	RowsScanned atomic.Int64
	// RowsPruned counts input rows a scan eliminated without evaluating any
	// condition on them: rows outside the sort-column binary-search range
	// plus rows in chunks a zone map excluded. It reports savings relative
	// to RowsScanned (the logical input volume), never extra work.
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

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.RowsScanned.Store(0)
	m.RowsPruned.Store(0)
	m.RowsShuffled.Store(0)
	m.JoinComparisons.Store(0)
	m.RowsOutput.Store(0)
	m.Tasks.Store(0)
	m.RowsSorted.Store(0)
	m.BytesSpilled.Store(0)
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
// per stage) and a worker limit. Metrics is the cluster-wide aggregate over
// every query ever run; per-query accounting goes through NewExec.
type Cluster struct {
	partitions int
	workers    int
	Metrics    Metrics
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
// through an Exec meter into its per-query Metrics (when non-nil) as well as
// the cluster aggregate. Exec values are cheap; create one per query.
type Exec struct {
	c   *Cluster
	m   *Metrics
	ctx context.Context
	// done caches ctx.Done(); nil means the context can never be cancelled
	// and all cancellation checks compile down to a nil comparison.
	done <-chan struct{}
	// scanPruned is ScanTable's scratch pruning counter. Operators on one
	// Exec run sequentially (only a single operator's partition tasks run
	// concurrently), so reusing one counter avoids a per-scan heap
	// allocation for a variable the partition closures must share.
	scanPruned atomic.Int64
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
	// mu guards the execution-scoped caches below. tables memoizes join
	// tables per (build block, key column) so join stages sharing a build
	// side hash it once (see joinTable); gathers memoizes coordinator-side
	// gathers of relations that are broadcast or crossed more than once.
	mu      sync.Mutex
	tables  map[tableKey]*indexTable
	gathers map[*Relation]*Block
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

// NewExec returns an execution handle metering into m (which may be nil for
// aggregate-only accounting) in addition to the cluster's Metrics. The
// execution is not cancellable; use NewExecContext to bind a context.
func (c *Cluster) NewExec(m *Metrics) *Exec { return &Exec{c: c, m: m} }

// NewExecContext returns an execution handle like NewExec whose operators
// additionally observe ctx: when ctx is cancelled or its deadline passes,
// running operators stop within one row batch and return truncated output,
// and Err reports why. Callers must check Err before trusting results.
func (c *Cluster) NewExecContext(ctx context.Context, m *Metrics) *Exec {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &Exec{c: c, m: m, ctx: ctx, done: ctx.Done()}
	if y, ok := ctx.Value(yielderKey{}).(Yielder); ok {
		x.yield = y
	}
	return x
}

// Cluster returns the underlying cluster.
func (x *Exec) Cluster() *Cluster { return x.c }

// MetricsSnapshot returns the execution's per-query counters (or, for an
// aggregate-only handle, the cluster-wide counters). Planners snapshot it
// around a join to attribute shuffled rows and comparisons to that step.
func (x *Exec) MetricsSnapshot() MetricsSnapshot {
	if x.m != nil {
		return x.m.Snapshot()
	}
	return x.c.Metrics.Snapshot()
}

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

// blockBytes is the accounted size of one block: its column storage.
func blockBytes(b *Block) int64 {
	if b == nil {
		return 0
	}
	return int64(b.Len()) * int64(b.Arity()) * int64(idBytes)
}

// idBytes is the storage width of one dict.ID.
const idBytes = 4

// trackRelation accounts every partition block of a freshly materialized
// relation. Operators that share their input's column slices (Project,
// Union, padRight) do not call it — sharing allocates nothing new.
func (x *Exec) trackRelation(r *Relation) {
	var n int64
	for _, p := range r.Parts {
		n += blockBytes(p)
	}
	x.trackBytes(n)
}

// tableBytes is the accounted size of an in-memory join table over n rows:
// keys (8 B) and heads (4 B) for the power-of-two slot array at load factor
// <= 0.5, plus one 4 B chain link per row.
func tableBytes(n int) int64 {
	slots := 2
	for slots < 2*n {
		slots *= 2
	}
	return int64(slots)*12 + int64(n)*4
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

// AddRowsScanned meters n extra scanned rows (used by wide-table scans that
// account for columns the narrow Scan projection did not touch).
func (x *Exec) AddRowsScanned(n int64) {
	x.c.Metrics.RowsScanned.Add(n)
	if x.m != nil {
		x.m.RowsScanned.Add(n)
	}
}

func (x *Exec) addPruned(n int64) {
	x.c.Metrics.RowsPruned.Add(n)
	if x.m != nil {
		x.m.RowsPruned.Add(n)
	}
}

func (x *Exec) addShuffled(n int64) {
	x.c.Metrics.RowsShuffled.Add(n)
	if x.m != nil {
		x.m.RowsShuffled.Add(n)
	}
}

func (x *Exec) addComparisons(n int64) {
	x.c.Metrics.JoinComparisons.Add(n)
	if x.m != nil {
		x.m.JoinComparisons.Add(n)
	}
}

func (x *Exec) addOutput(n int64) {
	x.c.Metrics.RowsOutput.Add(n)
	if x.m != nil {
		x.m.RowsOutput.Add(n)
	}
}

func (x *Exec) addTasks(n int64) {
	x.c.Metrics.Tasks.Add(n)
	if x.m != nil {
		x.m.Tasks.Add(n)
	}
}

func (x *Exec) addRowsSorted(n int64) {
	x.c.Metrics.RowsSorted.Add(n)
	if x.m != nil {
		x.m.RowsSorted.Add(n)
	}
}

func (x *Exec) addBytesSpilled(n int64) {
	x.c.Metrics.BytesSpilled.Add(n)
	if x.m != nil {
		x.m.BytesSpilled.Add(n)
	}
}

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

// PartitionKey returns the column index the relation is hash-partitioned
// by, or -1 when the partitioning is arbitrary. Planners consult it to
// recognize joins whose left side will not move.
func (r *Relation) PartitionKey() int { return r.keyCol }

// CoPartitionedBy reports whether a shuffle of the relation by column col
// across partitions target partitions would be skipped: the relation is
// already hash-partitioned by that column at that partition count.
func (r *Relation) CoPartitionedBy(col, partitions int) bool {
	return r.keyCol == col && col >= 0 && len(r.Parts) == partitions
}

// DistinctKeys returns the sorted distinct values of column col: the key
// set an intermediate pushes into the scan it will be joined with
// (ScanSpec.Keys). The result is non-nil even for an empty relation.
func (r *Relation) DistinctKeys(col int) []dict.ID {
	keys := make([]dict.ID, 0, r.NumRows())
	for _, p := range r.Parts {
		if p.Len() > 0 {
			keys = append(keys, p.cols[col]...)
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
		for _, v := range p.cols[col] {
			if !seen {
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
		for j, col := range p.cols {
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
// single partition holds every row it is shared as-is: blocks are
// write-once, so no copy is needed.
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

// gatherCached is gather memoized on the execution: a relation that is
// broadcast or crossed into several joins is collected once.
func (x *Exec) gatherCached(r *Relation) *Block {
	x.mu.Lock()
	b, ok := x.gathers[r]
	x.mu.Unlock()
	if ok {
		return b
	}
	b = r.gather()
	// A gather that had to concatenate allocated a fresh block; a lone
	// populated partition is shared as-is and was already accounted for.
	fresh := true
	for _, p := range r.Parts {
		if p == b {
			fresh = false
			break
		}
	}
	if fresh {
		x.trackBytes(blockBytes(b))
	}
	x.mu.Lock()
	if x.gathers == nil {
		x.gathers = make(map[*Relation]*Block)
	}
	x.gathers[r] = b
	x.mu.Unlock()
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
// scratch row and must not retain or modify it. Survivors are tracked in a
// selection vector and materialized once, column-wise.
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
// output shares the input's column slices outright — a projection moves no
// data; columns absent from the input become one shared Null column. The
// partitioning column survives projection when it is kept.
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
// pass over the contiguous key column tags every row with its target and
// counts bucket sizes, then each column is scattered into exactly-sized
// bucket blocks. It meters every moved row. When the relation is already
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
		keyCol := src.cols[key]
		// Pass 1: hash the key column, tagging each row with its target
		// partition and counting bucket sizes. m tracks how many rows were
		// tagged before a cancellation cut the pass short.
		tags := make([]int32, rows)
		counts := make([]int32, c.partitions)
		m := 0
		for i := 0; i < rows; i++ {
			if x.stop(i) {
				break
			}
			t := int32((hashID64(uint64(keyCol[i])) >> 32) % parts)
			tags[i] = t
			counts[t]++
			m++
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
			col := src.cols[j]
			for i := 0; i < m; i++ {
				local[tags[i]].cols[j][pos[i]] = col[i]
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
// whichever side is smaller, StrategyShuffle repartitions both sides. With
// no shared columns it degenerates to a cross join (metered but
// discouraged; the query planner avoids it).
func (x *Exec) JoinWith(left, right *Relation, strat JoinStrategy) *Relation {
	c := x.c
	lIdx, rIdx := sharedCols(left.Schema, right.Schema)
	if len(lIdx) == 0 {
		return x.cross(left, right)
	}
	if strat == StrategyBroadcast {
		return x.broadcastJoin(left, right, lIdx, rIdx)
	}
	// Shuffle both sides by the first join column; remaining join columns
	// are checked during the probe.
	l := x.shuffle(left, lIdx[0])
	r := x.shuffle(right, rIdx[0])

	outSchema := joinSchema(left.Schema, right.Schema, rIdx)
	out := newRelation(outSchema, c.partitions)
	out.keyCol = lIdx[0]
	x.parallel(c.partitions, func(p int) {
		out.Parts[p] = x.hashJoinPartition(l.Parts[p], r.Parts[p], lIdx, rIdx, len(outSchema))
	})
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// LeftJoinWith computes the left outer join (SPARQL OPTIONAL) under an
// explicit physical strategy: unmatched left rows survive with Null in the
// right-only columns, and an optional post-join predicate (the OPTIONAL
// group's filter) is applied to matched rows. Only the right side of an
// outer join can be broadcast (every left row must appear exactly once, so
// left rows stay partitioned in place).
func (x *Exec) LeftJoinWith(left, right *Relation, pred func(Row) bool, strat JoinStrategy) *Relation {
	c := x.c
	lIdx, rIdx := sharedCols(left.Schema, right.Schema)
	outSchema := joinSchema(left.Schema, right.Schema, rIdx)
	if len(lIdx) == 0 {
		// Cross-style OPTIONAL: every left row pairs with every right row
		// that satisfies pred; a left row none of whose pairs survive is
		// padded — per row, as SPARQL semantics require (an all-or-nothing
		// fallback would drop unmatched left rows whenever any other left
		// row matched).
		return x.crossOuter(left, right, outSchema, pred)
	}
	if strat == StrategyBroadcast {
		return x.leftJoinBroadcast(left, right, lIdx, rIdx, outSchema, pred)
	}
	l := x.shuffle(left, lIdx[0])
	r := x.shuffle(right, rIdx[0])
	out := newRelation(outSchema, c.partitions)
	out.keyCol = lIdx[0]
	x.parallel(c.partitions, func(p int) {
		rblk := r.Parts[p]
		if rblk == nil {
			rblk = NewBlock(len(right.Schema), 0)
		}
		ht := x.joinTable(rblk, rIdx[0])
		out.Parts[p] = x.probeOuter(l.Parts[p], ht, rblk, lIdx, rIdx, len(outSchema), pred)
	})
	x.trackRelation(out)
	x.addOutput(int64(out.NumRows()))
	return out
}

// hashJoinPartition joins one co-partition pair. The probe pass emits
// (build-row, probe-row) index pair vectors — no output row is assembled
// during probing — and the pairs are materialized once at the end, one
// gather per output column.
func (x *Exec) hashJoinPartition(lblk, rblk *Block, lIdx, rIdx []int, outArity int) *Block {
	if lblk.Len() == 0 || rblk.Len() == 0 {
		return newFixedBlock(outArity, 0)
	}
	// Build on the smaller side.
	build, probe := rblk, lblk
	bIdx, pIdx := rIdx, lIdx
	swapped := false
	if lblk.Len() < rblk.Len() {
		build, probe = lblk, rblk
		bIdx, pIdx = lIdx, rIdx
		swapped = true
	}
	// With a memory budget set and no room left for this build's table, run
	// the external sort-merge join instead (see spill.go). A disk failure
	// falls through to the in-memory path: the budget is best-effort, the
	// result is not.
	if x.overBudget(tableBytes(build.Len())) {
		if out, ok := x.spillJoin(build, probe, bIdx, pIdx, outArity, swapped); ok {
			return out
		}
	}
	ht := x.joinTable(build, bIdx[0])
	if ht == nil {
		return newFixedBlock(outArity, 0) // cancelled mid-build
	}
	pkey := probe.cols[pIdx[0]]
	// Probe-size capacity is the exact fit for unique-key joins (the common
	// case after ExtVP reduction); duplicate keys grow past it.
	bsel := make([]int32, 0, probe.Len())
	psel := make([]int32, 0, probe.Len())
	var comparisons int64
	for i, n := 0, probe.Len(); i < n; i++ {
		if x.stop(i) {
			break
		}
	cand:
		for bi := ht.first(pkey[i]); bi >= 0; bi = ht.next[bi] {
			comparisons++
			for k := 1; k < len(pIdx); k++ {
				if probe.cols[pIdx[k]][i] != build.cols[bIdx[k]][bi] {
					continue cand
				}
			}
			bsel = append(bsel, bi)
			psel = append(psel, int32(i))
		}
	}
	x.addComparisons(comparisons)
	if swapped {
		// build is the left input: its columns lead the output.
		return gatherPairs(build, bsel, probe, keepCols(probe.Arity(), pIdx), psel)
	}
	return gatherPairs(probe, psel, build, keepCols(build.Arity(), bIdx), bsel)
}

// probeOuter probes a prebuilt right-side join table with the left rows of
// one partition, producing left-outer output as pair vectors: matched pairs
// (filtered by pred when set) plus rsel = -1 entries for Null-padded
// survivors, materialized in one gather. It is safe to share one ht and
// build block across concurrent partition probes — both are read-only here.
// A nil ht (cancelled build) matches nothing.
func (x *Exec) probeOuter(lblk *Block, ht *indexTable, build *Block, lIdx, rIdx []int, outArity int, pred func(Row) bool) *Block {
	n := lblk.Len()
	rKeep := keepCols(build.Arity(), rIdx)
	if n == 0 {
		return newFixedBlock(outArity, 0)
	}
	lsel := make([]int32, 0, n)
	rsel := make([]int32, 0, n)
	// scratch assembles the joined row when a predicate must inspect it
	// before it is admitted; reused across rows, so predicates must not
	// retain it.
	var scratch Row
	if pred != nil {
		scratch = make(Row, outArity)
	}
	lkey := lblk.cols[lIdx[0]]
	var comparisons int64
	for i := 0; i < n; i++ {
		if x.stop(i) {
			break
		}
		matched := false
		if ht != nil {
		cand:
			for bi := ht.first(lkey[i]); bi >= 0; bi = ht.next[bi] {
				comparisons++
				for k := 1; k < len(lIdx); k++ {
					if lblk.cols[lIdx[k]][i] != build.cols[rIdx[k]][bi] {
						continue cand
					}
				}
				if pred != nil {
					lblk.CopyRow(scratch, i)
					for k, rc := range rKeep {
						scratch[lblk.Arity()+k] = build.cols[rc][bi]
					}
					if !pred(scratch) {
						continue cand
					}
				}
				lsel = append(lsel, int32(i))
				rsel = append(rsel, bi)
				matched = true
			}
		}
		if !matched {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, -1)
		}
	}
	x.addComparisons(comparisons)
	return gatherPairs(lblk, lsel, build, rKeep, rsel)
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

// cross computes the cartesian product, column-at-a-time: per left row, the
// left values are run-length extended and the gathered right block's columns
// are appended wholesale. Cancellation is polled between left rows at
// cancelBatch output granularity, truncating the block consistently.
func (x *Exec) cross(left, right *Relation) *Relation {
	outSchema := append(append([]string{}, left.Schema...), right.Schema...)
	rblk := x.gatherCached(right)
	rn := rblk.Len()
	x.addShuffled(int64(rn) * int64(len(left.Parts)))
	out := newRelation(outSchema, len(left.Parts))
	x.parallel(len(left.Parts), func(p int) {
		src := left.Parts[p]
		ln := src.Len()
		rows := NewBlock(len(outSchema), 0)
		out.Parts[p] = rows
		if ln == 0 || rn == 0 {
			return
		}
		lA := src.Arity()
		produced, next := 0, 0
		for i := 0; i < ln; i++ {
			if produced >= next {
				if x.Cancelled() {
					return
				}
				next = produced + cancelBatch
			}
			for j := 0; j < lA; j++ {
				v := src.cols[j][i]
				col := rows.cols[j]
				for k := 0; k < rn; k++ {
					col = append(col, v)
				}
				rows.cols[j] = col
			}
			for j, rc := range rblk.cols {
				rows.cols[lA+j] = append(rows.cols[lA+j], rc...)
			}
			rows.n += rn
			produced += rn
		}
	})
	x.trackRelation(out)
	x.addComparisons(int64(left.NumRows()) * int64(rn))
	x.addOutput(int64(out.NumRows()))
	return out
}

// crossOuter is the left outer join with no shared columns (cross-style
// OPTIONAL): each left row pairs with every right row passing pred, and
// left rows with no surviving pair are padded with Nulls.
func (x *Exec) crossOuter(left, right *Relation, outSchema []string, pred func(Row) bool) *Relation {
	rblk := x.gatherCached(right)
	rn := rblk.Len()
	x.addShuffled(int64(rn) * int64(len(left.Parts)))
	out := newRelation(outSchema, len(left.Parts))
	lA := len(left.Schema)
	x.parallel(len(left.Parts), func(p int) {
		src := left.Parts[p]
		ln := src.Len()
		rows := NewBlock(len(outSchema), 0)
		out.Parts[p] = rows
		if ln == 0 {
			return
		}
		scratch := make(Row, len(outSchema))
		rsel := make([]int32, 0, rn)
		produced, next := 0, 0
		for i := 0; i < ln; i++ {
			if produced >= next {
				if x.Cancelled() {
					return
				}
				next = produced + cancelBatch
			}
			// Collect the surviving right rows for this left row, then emit
			// them in one column-wise pass.
			rsel = rsel[:0]
			if pred == nil {
				for j := 0; j < rn; j++ {
					rsel = append(rsel, int32(j))
				}
			} else {
				src.CopyRow(scratch[:lA], i)
				for j := 0; j < rn; j++ {
					rblk.CopyRow(scratch[lA:], j)
					if pred(scratch) {
						rsel = append(rsel, int32(j))
					}
				}
			}
			produced += rn
			if len(rsel) == 0 {
				for j := 0; j < lA; j++ {
					rows.cols[j] = append(rows.cols[j], src.cols[j][i])
				}
				for j := lA; j < len(outSchema); j++ {
					rows.cols[j] = append(rows.cols[j], Null)
				}
				rows.n++
				continue
			}
			for j := 0; j < lA; j++ {
				v := src.cols[j][i]
				col := rows.cols[j]
				for range rsel {
					col = append(col, v)
				}
				rows.cols[j] = col
			}
			for j, rc := range rblk.cols {
				col := rows.cols[lA+j]
				for _, rj := range rsel {
					col = append(col, rc[rj])
				}
				rows.cols[lA+j] = col
			}
			rows.n += len(rsel)
		}
	})
	x.trackRelation(out)
	x.addComparisons(int64(left.NumRows()) * int64(rn))
	x.addOutput(int64(out.NumRows()))
	return out
}

// padRight extends every left row with Nulls to match outSchema. The left
// columns are shared, not copied, and the pad columns share one Null
// column per partition; rows do not move, so the partitioning survives.
func (x *Exec) padRight(left *Relation, outSchema []string) *Relation {
	out := newRelation(outSchema, len(left.Parts))
	out.keyCol = left.keyCol
	x.parallel(len(left.Parts), func(p int) {
		src := left.Parts[p]
		n := src.Len()
		if n == 0 {
			out.Parts[p] = NewBlock(len(outSchema), 0)
			return
		}
		blk := &Block{cols: make([][]dict.ID, len(outSchema)), n: n}
		for j := range src.cols {
			blk.cols[j] = src.cols[j][:n:n]
		}
		nulls := nullColumn(n)
		for j := len(src.cols); j < len(outSchema); j++ {
			blk.cols[j] = nulls
		}
		out.Parts[p] = blk
	})
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

// fnv1a constants shared by the row-hash passes (Distinct and tests).
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

// hashRow returns a 64-bit FNV-1a hash over the row's IDs, folding each
// 32-bit ID in one step instead of byte-at-a-time. It is the row-wise twin
// of Distinct's column-wise hash pass.
func hashRow(row Row) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range row {
		h = (h ^ uint64(v)) * fnvPrime64
	}
	return h
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
