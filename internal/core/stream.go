package core

import (
	"context"
	"time"

	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
)

// Stream is an executing query whose solutions are delivered batch by
// batch instead of as one materialized Result. The relational plan runs to
// its final relation eagerly (joins need their inputs whole), but binding
// decode — the dictionary lookups that dominate result delivery — and
// everything downstream of it happen incrementally: each call hands out
// one engine batch (1024 rows) — NextBlock as the engine's zero-copy column
// block, NextRaw carved into ID rows, Next decoded into terms — doubling
// as a cancellation/yield point, so a slow or disconnected consumer stops
// or paces the query mid-result and the scheduler slot is held exactly as
// long as rows still flow. A Stream is used by one goroutine at a time.
type Stream struct {
	e     *Engine
	ex    *engine.Exec
	qm    *engine.Metrics
	res   *Result
	it    *engine.BatchIter
	start time.Time
	ttfr  time.Duration
	done  bool
}

// QueryStream parses src and starts executing it, returning the stream of
// its solutions. See ExecPlan.
func (e *Engine) QueryStream(ctx context.Context, src string) (*Stream, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStream(ctx, q)
}

// ExecStream plans a parsed query and executes the plan: ExecPlan of
// PlanQuery(q).
func (e *Engine) ExecStream(ctx context.Context, q *sparql.Query) (*Stream, error) {
	return e.ExecPlan(ctx, e.PlanQuery(q))
}

// ExecPlan executes a query planned by e.PlanQuery up to its final relation
// and returns a Stream over the undecoded solutions; every BGP runs the
// plan PlanQuery made for it. The query — including aggregation, DISTINCT,
// ORDER BY and LIMIT — has fully run when ExecPlan returns;
// with ORDER BY and a LIMIT window small relative to the input the sort is
// a bounded top-k (per-partition heaps of offset+limit rows), so such
// queries reach their first batch having held only the rows they will
// deliver. Either way each sort term is decoded once per row, not once per
// comparison.
//
// The caller must drain the stream (Next until nil) or abandon it by
// cancelling ctx; Result finalizes metrics and timings.
//
// ExecPlan is a panic-isolation boundary: an operator panic anywhere in
// the plan (including on a parallel worker, re-raised by the engine as a
// typed *engine.PanicError) is recovered here and returned as a
// *QueryPanicError wrapping ErrInternal — the query fails, the process and
// every other in-flight query keep running.
func (e *Engine) ExecPlan(ctx context.Context, p *QueryPlan) (s *Stream, err error) {
	defer func() {
		if r := recover(); r != nil {
			recoverAsError(r, &err)
			s = nil
		}
	}()
	start := time.Now()
	qm := &engine.Metrics{}
	ex := e.Cluster.NewExecContext(ctx, qm)
	if e.MemBudget > 0 {
		ex.SetMemBudget(e.MemBudget, e.SpillDir)
	}
	if e.FS != nil || e.Faults != nil {
		ex.SetFaultPolicy(e.FS, e.Faults)
	}

	q := p.q
	res := &Result{}
	top := fusedTopK(q)
	plans := bgpQueue(p.bgps)
	rel, err := e.evalGroup(ex, q.Where, &plans, res, top)
	if err != nil {
		return nil, err
	}

	s = &Stream{e: e, ex: ex, qm: qm, res: res, start: start}

	if q.Ask {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		res.Ask = rel.NumRows() > 0
		s.done = true
		return s, nil
	}

	if q.HasAggregates() {
		rel = e.aggregate(ex, rel, q)
	}

	vars := q.SelectVars()
	rel = ex.Project(rel, vars)
	if q.Distinct {
		rel = ex.Distinct(rel)
	}
	if len(q.OrderBy) > 0 && (top == nil || !top.applied) {
		cols := sortCols(rel, q.OrderBy)
		if window, ok := topKWindow(q); ok && engine.UseTopK(window, rel.NumRows()) {
			// ORDER BY + LIMIT: top-k pushdown. Each partition holds at
			// most offset+limit rows of sort state instead of the result.
			rel = ex.TopK(rel, window, cols, e.sortKey)
		} else {
			rel = ex.OrderBy(rel, cols, e.sortKey)
		}
	}
	if q.Limit >= 0 || q.Offset > 0 {
		limit := q.Limit
		if limit < 0 {
			limit = -1
		}
		rel = ex.Limit(rel, q.Offset, limit)
	}
	if err := ex.Err(); err != nil {
		return nil, err
	}

	res.Vars = vars
	s.it = rel.Batches(ex, 0)
	return s, nil
}

// topKWindow returns the rows ORDER BY … LIMIT must keep — offset plus
// limit — and false when the query has no LIMIT or the sum overflows.
func topKWindow(q *sparql.Query) (int, bool) {
	offset := max(q.Offset, 0)
	const maxInt = int(^uint(0) >> 1)
	if q.Limit < 0 || q.Limit > maxInt-offset {
		return 0, false
	}
	return offset + q.Limit, true
}

// topKRequest asks evalBGP to take the query's ORDER BY … LIMIT into its
// final join (engine.JoinTopK), so that the join's output is never
// materialized; applied reports that it did.
type topKRequest struct {
	window  int
	keys    []sparql.OrderKey
	applied bool
}

// fusedTopK returns the top-k request for q, or nil when nothing but its
// ORDER BY … LIMIT may follow the final join of its WHERE clause: q must be
// a SELECT with a LIMIT and without DISTINCT or aggregates, its WHERE
// clause a single BGP (evalBGP checks that every filter went into a scan),
// and every ORDER BY key a projected variable.
func fusedTopK(q *sparql.Query) *topKRequest {
	window, ok := topKWindow(q)
	if !ok || len(q.OrderBy) == 0 || q.Ask || q.Distinct || q.HasAggregates() ||
		len(q.Where.Optionals) > 0 || len(q.Where.Unions) > 0 {
		return nil
	}
	vars := q.SelectVars()
	for _, k := range q.OrderBy {
		if indexOf(vars, k.Var) < 0 {
			return nil
		}
	}
	return &topKRequest{window: window, keys: q.OrderBy}
}

// Vars returns the result's variable names, known before the first batch.
func (s *Stream) Vars() []string { return s.res.Vars }

// Ask reports the boolean answer of an ASK query (meaningful only when the
// executed query was ASK; such streams deliver no rows).
func (s *Stream) Ask() bool { return s.res.Ask }

// Next returns the next batch of decoded solutions, or nil when the stream
// is exhausted. A non-nil error means the execution was cancelled (context
// deadline or disconnect) and the rows delivered so far are a truncation —
// the consumer must not present them as the complete result. Each call
// polls the execution's cancellation point and yields to the scheduler, so
// batch pacing is query pacing. The batch's rows share one backing array
// of terms, filled straight from the block's columns.
//
// Next is the mid-stream panic-isolation boundary: a panic during batch
// decode is recovered and returned as a *QueryPanicError wrapping
// ErrInternal, ending the stream. Consumers already treat a Next error as a
// truncation, so streaming servers surface it exactly like a mid-stream
// cancellation (a trailing error member) while the process keeps serving.
func (s *Stream) Next() (batch [][]rdf.Term, err error) {
	if s.done {
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.done = true
			batch = nil
			recoverAsError(r, &err)
		}
	}()
	b, err := s.nextBlock()
	if b == nil || err != nil {
		return nil, err
	}
	d := s.e.DS.Dict
	n, arity := b.Len(), b.Arity()
	terms := make([]rdf.Term, n*arity)
	for j := 0; j < arity; j++ {
		for i, id := range b.Col(j) {
			if id != engine.Null {
				terms[i*arity+j] = d.Decode(id)
			}
		}
	}
	batch = make([][]rdf.Term, n)
	for i := range batch {
		batch[i] = terms[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return batch, nil
}

// NextBlock returns the next batch of solutions as a zero-copy column
// block of dictionary IDs — column j binds Vars()[j], engine.Null marks an
// unbound variable — or nil when the stream is exhausted. The block is a
// read-only view of the final relation's storage: it stays valid for as
// long as the caller keeps it, and may be read from any goroutine. Error
// and panic-isolation semantics match Next.
func (s *Stream) NextBlock() (b *engine.Block, err error) {
	if s.done {
		return nil, nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.done = true
			b = nil
			recoverAsError(r, &err)
		}
	}()
	return s.nextBlock()
}

// NextRaw is NextBlock carved into rows: the next batch of solutions as
// rows of dictionary IDs (engine.Null marks an unbound variable), or nil
// when the stream is exhausted. The rows share one backing slice per batch
// and stay valid after the next call. Error and panic-isolation semantics
// match Next.
func (s *Stream) NextRaw() ([]engine.Row, error) {
	b, err := s.NextBlock()
	if b == nil || err != nil {
		return nil, err
	}
	n, arity := b.Len(), b.Arity()
	buf := make([]dict.ID, n*arity)
	for j := 0; j < arity; j++ {
		for i, id := range b.Col(j) {
			buf[i*arity+j] = id
		}
	}
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = buf[i*arity : (i+1)*arity : (i+1)*arity]
	}
	return rows, nil
}

// nextBlock fetches the next engine batch, stamping time-to-first-row.
// Callers own the recover boundary.
func (s *Stream) nextBlock() (*engine.Block, error) {
	b, ok := s.it.Next()
	if !ok {
		s.done = true
		return nil, s.ex.Err()
	}
	if s.ttfr == 0 && b.Len() > 0 {
		s.ttfr = time.Since(s.start)
	}
	return b, nil
}

// Result finalizes and returns the stream's Result: metrics, duration,
// time-to-first-row and peak accounted memory. Rows holds whatever the
// caller accumulated there (ExecContext appends every batch; streaming
// servers leave it empty). Call it after Next returned nil, or after
// abandoning the stream, not before.
func (s *Stream) Result() *Result {
	s.res.Metrics = s.qm.Snapshot()
	s.res.Duration = time.Since(s.start)
	s.res.TimeToFirstRow = s.ttfr
	s.res.PeakMemBytes = s.ex.PeakMemBytes()
	return s.res
}
