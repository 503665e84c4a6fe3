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
// everything downstream of it happen incrementally: each Next call decodes
// one engine batch (1024 rows), doubling as a cancellation/yield point, so
// a slow or disconnected consumer stops or paces the query mid-result and
// the scheduler slot is held exactly as long as rows still flow.
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

// QueryStream parses src (through the plan cache) and starts executing it,
// returning the stream of its solutions. See ExecStream.
func (e *Engine) QueryStream(ctx context.Context, src string) (*Stream, error) {
	q, cached, err := e.ParseCached(src, NormalizeQuery(src))
	if err != nil {
		return nil, err
	}
	s, err := e.ExecStream(ctx, q)
	if err == nil {
		s.res.PlanCached = cached
	}
	return s, err
}

// ExecStream executes a parsed query up to its final relation and returns
// a Stream over the undecoded solutions. The plan — including aggregation,
// DISTINCT, ORDER BY and LIMIT — has fully run when ExecStream returns;
// with ORDER BY and a LIMIT window small relative to the input the sort is
// a bounded top-k (per-partition heaps of offset+limit rows), so such
// queries reach their first batch having held only the rows they will
// deliver. Either way each sort term is decoded once per row, not once per
// comparison.
//
// The caller must drain the stream (Next until nil) or abandon it by
// cancelling ctx; Result finalizes metrics and timings.
//
// ExecStream is a panic-isolation boundary: an operator panic anywhere in
// the plan (including on a parallel worker, re-raised by the engine as a
// typed *engine.PanicError) is recovered here and returned as a
// *QueryPanicError wrapping ErrInternal — the query fails, the process and
// every other in-flight query keep running.
func (e *Engine) ExecStream(ctx context.Context, q *sparql.Query) (s *Stream, err error) {
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

	res := &Result{}
	rel, err := e.evalGroup(ex, q.Where, res)
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
	if len(q.OrderBy) > 0 {
		cols := sortCols(rel, q.OrderBy)
		offset := q.Offset
		if offset < 0 {
			offset = 0
		}
		const maxInt = int(^uint(0) >> 1)
		if q.Limit >= 0 && q.Limit <= maxInt-offset &&
			offset+q.Limit <= rel.NumRows()/8 {
			// ORDER BY + LIMIT: top-k pushdown. Each partition holds at
			// most offset+limit rows of sort state instead of the result.
			// Only worthwhile when the window is a small fraction of the
			// input: a heap pays log(window) per row kept, and on 2.4×10⁵
			// rows it beats the full sort through a window of 1/8 of the
			// input, draws at 1/6 and loses from 1/4 up
			// (docs/perf-orderby.md).
			rel = ex.TopK(rel, offset+q.Limit, cols, e.sortKey)
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
// batch pacing is query pacing.
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
	rows, err := s.nextRows()
	if rows == nil || err != nil {
		return nil, err
	}
	d := s.e.DS.Dict
	out := make([][]rdf.Term, len(rows))
	for i, row := range rows {
		terms := make([]rdf.Term, len(row))
		for j, id := range row {
			if id != engine.Null {
				terms[j] = d.Decode(id)
			}
		}
		out[i] = terms
	}
	return out, nil
}

// NextRaw is Next without binding decode: the next batch of solutions as
// rows of dictionary IDs (engine.Null marks an unbound variable), or nil
// when the stream is exhausted. Consumers that serialize terms through the
// dictionary's memoized renderings (dict.TermJSON) skip the per-row Decode
// round trip entirely. Error and panic-isolation semantics match Next.
func (s *Stream) NextRaw() (batch []engine.Row, err error) {
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
	return s.nextRows()
}

// nextRows fetches and copies out the next engine batch, stamping
// time-to-first-row. Callers own the recover boundary.
func (s *Stream) nextRows() ([]engine.Row, error) {
	b, ok := s.it.Next()
	if !ok {
		s.done = true
		return nil, s.ex.Err()
	}
	// One backing slice per batch, filled column-wise: the rows handed out
	// stay valid after the next call (servers buffer them).
	n := b.Len()
	arity := b.Arity()
	out := make([]engine.Row, n)
	buf := make([]dict.ID, n*arity)
	for j := 0; j < arity; j++ {
		for i, id := range b.Col(j) {
			buf[i*arity+j] = id
		}
	}
	for i := range out {
		out[i] = buf[i*arity : (i+1)*arity : (i+1)*arity]
	}
	if s.ttfr == 0 && n > 0 {
		s.ttfr = time.Since(s.start)
	}
	return out, nil
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
