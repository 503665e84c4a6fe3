// Package core implements S2RDF itself: the SPARQL-to-relational compiler
// over the ExtVP schema, with statistics-driven table selection (paper
// Algorithm 1), triple-pattern compilation (Algorithm 2) and join-order
// optimization (Algorithms 3 and 4), executed on the partitioned relational
// engine.
//
// The same compiler also runs in VP, TT and PT modes, which serve as the
// paper's baselines (S2RDF VP, a plain triples-table store, and the
// Sempala-style property-table layout).
//
// An Engine is safe for concurrent use: every Exec call runs with its own
// engine.Exec handle, so per-query metrics are exact even when many queries
// are in flight, while Cluster.Metrics keeps the cluster-wide aggregate.
// Parsed queries are cached in an LRU keyed on whitespace-normalized query
// text, so repeated query strings skip the parser.
//
// Execution is cancellable: QueryContext and ExecContext bind a
// context.Context to the run, and every relational operator observes it at
// row-batch granularity, so a deadline or client disconnect aborts the plan
// mid-operator and the call returns ctx.Err().
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/fault"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
	"s2rdf/internal/sparql"
)

// Mode selects the storage layout queries are compiled against.
type Mode int

const (
	// ModeExtVP uses ExtVP tables with statistics-driven selection — the
	// paper's contribution.
	ModeExtVP Mode = iota
	// ModeVP uses plain vertical partitioning (baseline "S2RDF VP").
	ModeVP
	// ModeTT scans the triples table for every pattern.
	ModeTT
	// ModePT answers star sub-patterns from the unified property table
	// (the Sempala baseline).
	ModePT
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeExtVP:
		return "ExtVP"
	case ModeVP:
		return "VP"
	case ModeTT:
		return "TT"
	case ModePT:
		return "PT"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DefaultPlanCacheSize is the parsed-plan LRU capacity New configures.
const DefaultPlanCacheSize = 128

// Engine executes SPARQL queries over a dataset in one layout mode.
type Engine struct {
	DS      *layout.Dataset
	Cluster *engine.Cluster
	Mode    Mode
	// JoinOrderOpt enables the size-driven join ordering of Algorithm 4;
	// disabled it falls back to Algorithm 3 (pattern order as written).
	JoinOrderOpt bool
	// Lazy, when set, builds a selected ExtVP reduction's rows the first
	// time a query needs them and keeps them for later queries — the
	// paper's "pay as you go" loading strategy (Sec. 7). The dataset must
	// be built without ExtVP and wrapped by layout.NewLazyExtVP.
	Lazy *layout.LazyExtVP
	// UnifyCorrelations intersects all applicable bit-vector reductions of
	// a triple pattern instead of picking the single best one — the
	// unification strategy the paper sketches as future work (Sec. 8).
	// Effective only when the dataset was built with layout
	// Options.BitVectors.
	UnifyCorrelations bool
	// Plans caches parsed queries by normalized text; nil disables caching.
	Plans *PlanCache
	// Selections caches per-BGP table selections (Algorithm 1 output) by
	// normalized BGP; nil disables caching.
	Selections *SelectionCache
	// MemBudget, when > 0, bounds each query's accounted intermediate state
	// (materialized blocks and join tables) to that many bytes; hash-join
	// builds that would exceed it spill to sorted temp-file runs under
	// SpillDir (empty selects the OS temp directory). Zero disables the
	// budget. Set from the -mem-budget flag.
	MemBudget int64
	SpillDir  string
	// FS, when non-nil, routes every spill-file operation through the given
	// filesystem — the fault-injection seam chaos tests use. Nil means the
	// real OS filesystem.
	FS fault.FS
	// Faults, when non-nil, observes the outcome of every spill I/O attempt
	// (failures and healing successes), feeding a store's health state
	// machine. Typically a *fault.Health shared with the serving layer.
	Faults engine.FaultReporter

	// algorithm1Runs counts how many times table selection actually ran
	// (selection-cache misses); tests use it to prove hits skip it.
	algorithm1Runs atomic.Int64

	// pt caches the property-table view built on first use in ModePT.
	ptOnce sync.Once
	pt     *ptView
}

// Algorithm1Runs reports how many BGPs were planned by running table
// selection, as opposed to served from the selection cache.
func (e *Engine) Algorithm1Runs() int64 { return e.algorithm1Runs.Load() }

// New returns an engine in the given mode with join-order optimization and
// default-sized plan and selection caches.
func New(ds *layout.Dataset, mode Mode) *Engine {
	return &Engine{
		DS:           ds,
		Cluster:      engine.NewCluster(0),
		Mode:         mode,
		JoinOrderOpt: true,
		Plans:        NewPlanCache(DefaultPlanCacheSize),
		Selections:   NewSelectionCache(DefaultSelectionCacheSize),
	}
}

// PatternPlan records which table was selected for one triple pattern,
// for EXPLAIN-style inspection and the paper's selectivity experiments.
type PatternPlan struct {
	Pattern string
	Table   string
	Rows    int
	SF      float64
	// Est is the planner's row estimate after bound-term selectivity
	// scaling (Rows divided by the distinct-value count of each bound
	// column); equal to Rows when no statistics apply.
	Est int
	// Scanned and Pruned report the executed scan's work: metered input
	// rows, and rows eliminated by sort-order binary search or zone-map
	// skips without evaluating any condition. Both stay zero when the
	// pattern was never executed (statistics-only answers).
	Scanned, Pruned int64
	// Keys is the number of join keys the intermediate pushed into this
	// pattern's scan (the run-time semi-join; zero when none were).
	Keys int
}

// Result is a solved query: variable names, decoded rows, the physical
// plan, and the engine metrics the execution consumed.
type Result struct {
	Vars []string
	// Rows holds one term per variable; the empty term marks an unbound
	// variable (possible under OPTIONAL and UNION).
	Rows [][]rdf.Term
	Plan []PatternPlan
	// JoinOrder lists indices into Plan in the order the planner executed
	// the patterns (statistics-driven smallest-first when JoinOrderOpt).
	JoinOrder []int
	// Joins records every executed join step — the chosen physical
	// strategy and the size estimates it was based on.
	Joins []JoinPlan
	// SelectionCacheHits / SelectionCacheMisses count the query's BGPs
	// served from / computed into the selection cache (Algorithm 1 skipped
	// on a hit). Both zero when no BGP was planned (e.g. PT mode).
	SelectionCacheHits, SelectionCacheMisses int
	// Metrics holds exactly the work this query performed, independent of
	// any other queries in flight on the same engine.
	Metrics  engine.MetricsSnapshot
	Duration time.Duration
	// TimeToFirstRow is the latency until the first solution was decoded
	// and available to the consumer — the streaming pipeline's headline
	// figure. Zero for results with no rows.
	TimeToFirstRow time.Duration
	// PeakMemBytes is the query's accounted intermediate state: every
	// materialized block and join table, counted at append/build time
	// (monotonic, so also the high-water mark).
	PeakMemBytes int64
	// StatsOnly is true when the statistics proved the result empty
	// without executing anything (paper Sec. 6.1, ST-8 queries).
	StatsOnly bool
	// Ask holds the boolean answer of an ASK query (Rows is empty then).
	Ask bool
	// PlanCached is true when the parsed query came from the plan cache.
	PlanCached bool
	// Sched, when the query ran through an admission scheduler, records the
	// cost-gate verdict and the scheduling delay the query experienced. Nil
	// for directly-executed queries.
	Sched *SchedInfo
}

// SchedInfo is the scheduling record attached to a Result by the serving
// layer: what the cost gate decided and what it cost the query in queueing
// terms. Fields mirror the X-S2RDF-* scheduling headers.
type SchedInfo struct {
	// Class is the cost-gate verdict: "cheap" or "expensive".
	Class string
	// Cost is the pre-execution estimate the classification used.
	Cost CostEstimate
	// QueueWait is the total time spent waiting for a worker slot,
	// including re-queues after yields.
	QueueWait time.Duration
	// Yields counts how many times the query gave up its slot mid-run.
	Yields int
}

// Len returns the number of solution mappings.
func (r *Result) Len() int { return len(r.Rows) }

// Bindings returns the solutions as variable->term maps (unbound vars are
// omitted), convenient for assertions and display.
func (r *Result) Bindings() []map[string]rdf.Term {
	out := make([]map[string]rdf.Term, len(r.Rows))
	for i, row := range r.Rows {
		m := make(map[string]rdf.Term, len(row))
		for j, t := range row {
			if t != "" {
				m[r.Vars[j]] = t
			}
		}
		out[i] = m
	}
	return out
}

// Query parses and executes a SPARQL query string. Parsed queries are
// memoized in the plan cache under their normalized text.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query bound to a context: when ctx is cancelled or its
// deadline passes, execution stops within one row batch and the call
// returns ctx.Err(). Parsed queries are memoized in the plan cache under
// their normalized text.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	q, cached, err := e.ParseCached(src, NormalizeQuery(src))
	if err != nil {
		return nil, err
	}
	res, err := e.ExecContext(ctx, q)
	if res != nil {
		res.PlanCached = cached
	}
	return res, err
}

// ParseCached parses src through the plan cache (when configured) under
// norm, which must be NormalizeQuery(src), reporting whether the parsed
// query was served from the cache. It is the one plan-cache probe of a
// query: QueryContext, QueryStream and EstimateCost call it with the text
// they normalize themselves; the serving layer — which already normalized
// the request for its result-cache key — calls it once
// and hands the parsed query to EstimateQuery and ExecStream.
func (e *Engine) ParseCached(src, norm string) (q *sparql.Query, cached bool, err error) {
	if e.Plans != nil {
		if q, cached = e.Plans.get(norm); cached {
			return q, true, nil
		}
	}
	if q, err = sparql.Parse(src); err != nil {
		return nil, false, err
	}
	if e.Plans != nil {
		e.Plans.put(norm, q)
	}
	return q, false, nil
}

// Exec executes a parsed query. The query value is not modified, so one
// parsed query may be executed repeatedly and concurrently.
func (e *Engine) Exec(q *sparql.Query) (*Result, error) {
	return e.ExecContext(context.Background(), q)
}

// ExecContext executes a parsed query under ctx and materializes the full
// result. Every operator in the plan observes the context at row-batch
// granularity; once it is done the partially-built relations are discarded
// and ctx.Err() is returned, so a request timeout or client disconnect
// frees the worker pool promptly. It is ExecStream drained to completion —
// callers that can deliver rows incrementally should use ExecStream.
func (e *Engine) ExecContext(ctx context.Context, q *sparql.Query) (*Result, error) {
	s, err := e.ExecStream(ctx, q)
	if err != nil {
		return nil, err
	}
	for {
		batch, err := s.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		s.res.Rows = append(s.res.Rows, batch...)
	}
	return s.Result(), nil
}

// sortCols resolves the ORDER BY keys to columns of rel; keys naming a
// variable the relation does not carry order nothing and are dropped.
func sortCols(rel *engine.Relation, keys []sparql.OrderKey) []engine.SortCol {
	cols := make([]engine.SortCol, 0, len(keys))
	for _, k := range keys {
		if c := rel.ColIndex(k.Var); c >= 0 {
			cols = append(cols, engine.SortCol{Col: c, Desc: k.Desc})
		}
	}
	return cols
}

// sortKey places a bound term in ORDER BY's total order (engine.SortKey):
// numeric literals by value, before every other term by its text. The sort
// operators call it once per sorted value, from several goroutines.
func (e *Engine) sortKey(id dict.ID) engine.SortKey {
	t := e.DS.Dict.Decode(id)
	if v, ok := t.Numeric(); ok && v == v { // NaN has no place in an order
		return engine.NumericKey(v)
	}
	return engine.TextKey(string(t))
}

// unitRelation is the join identity: one zero-column row.
func (e *Engine) unitRelation(ex *engine.Exec) *engine.Relation {
	return ex.FromRows(nil, []engine.Row{{}})
}

// evalGroup evaluates a group graph pattern: BGP, then UNION blocks, then
// pushable filters, then OPTIONALs, then remaining filters.
func (e *Engine) evalGroup(ex *engine.Exec, g *sparql.Group, res *Result) (*engine.Relation, error) {
	var rel *engine.Relation
	// Filters whose variables are covered by a single triple pattern are
	// pushed into that pattern's scan, where they run at the scan's
	// materialization boundary instead of over an already-built relation.
	filters := g.Filters
	if len(g.Triples) > 0 {
		consumed := make([]bool, len(filters))
		r, err := e.evalBGP(ex, g.Triples, filters, consumed, res)
		if err != nil {
			return nil, err
		}
		rel = r
		rest := make([]sparql.Expression, 0, len(filters))
		for i, f := range filters {
			if !consumed[i] {
				rest = append(rest, f)
			}
		}
		filters = rest
	}
	for _, u := range g.Unions {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		ur, err := e.evalUnion(ex, u, res)
		if err != nil {
			return nil, err
		}
		if rel == nil {
			rel = ur
		} else {
			// Group-level joins see materialized inputs, so the strategy
			// choice runs on exact cardinalities.
			coPart := coPartitionedLeft(rel, ur.Schema, e.Cluster.Partitions())
			strat := chooseJoinStrategy(rel.NumRows(), ur.NumRows(), e.Cluster.Partitions(), coPart)
			if !overlap(rel.Schema, ur.Schema) {
				strat = strategyCross
			}
			leftRows := rel.NumRows()
			before := ex.MetricsSnapshot()
			rel = ex.JoinWith(rel, ur, engineStrategy(strat))
			d := ex.MetricsSnapshot().Sub(before)
			res.Joins = append(res.Joins, JoinPlan{
				Right: "UNION", Strategy: strat,
				LeftRows: leftRows, RightRows: ur.NumRows(),
				RowsShuffled: d.RowsShuffled, Comparisons: d.JoinComparisons,
				CoPartitioned: coPart && strat == strategyShuffle,
			})
		}
	}
	if rel == nil {
		rel = e.unitRelation(ex)
	}

	// Filter pushing: apply the remaining filters whose variables are all
	// bound by the pattern evaluated so far (paper Sec. 6: "basic algebraic
	// optimizations, e.g. filter pushing").
	var deferred []sparql.Expression
	for _, f := range filters {
		if varsSubset(f.Vars(), rel.Schema) {
			rel = e.applyFilter(ex, rel, f)
		} else {
			deferred = append(deferred, f)
		}
	}

	for _, opt := range g.Optionals {
		if err := ex.Err(); err != nil {
			return nil, err
		}
		right, err := e.evalOptionalBody(ex, opt, res)
		if err != nil {
			return nil, err
		}
		pred := e.filterPred(joinedSchema(rel.Schema, right.Schema), opt.Filters)
		// OPTIONAL never broadcast before this planner existed; now the
		// right side is replicated whenever that moves fewer rows than
		// shuffling both sides (only the right side of an outer join can
		// be broadcast — unmatched left rows must survive exactly once).
		strat := chooseLeftJoinStrategy(rel.NumRows(), right.NumRows(), e.Cluster.Partitions())
		if !overlap(rel.Schema, right.Schema) {
			strat = strategyCross
		}
		coPart := coPartitionedLeft(rel, right.Schema, e.Cluster.Partitions())
		leftRows := rel.NumRows()
		before := ex.MetricsSnapshot()
		rel = ex.LeftJoinWith(rel, right, pred, engineStrategy(strat))
		d := ex.MetricsSnapshot().Sub(before)
		res.Joins = append(res.Joins, JoinPlan{
			Right: "OPTIONAL", Strategy: strat,
			LeftRows: leftRows, RightRows: right.NumRows(),
			RowsShuffled: d.RowsShuffled, Comparisons: d.JoinComparisons,
			CoPartitioned: coPart && strat == strategyShuffle,
		})
	}

	for _, f := range deferred {
		rel = e.applyFilter(ex, rel, f)
	}
	return rel, nil
}

// evalOptionalBody evaluates an OPTIONAL group without its top-level
// filters (those join the LeftJoin as its predicate, per SPARQL semantics).
func (e *Engine) evalOptionalBody(ex *engine.Exec, g *sparql.Group, res *Result) (*engine.Relation, error) {
	body := &sparql.Group{
		Triples:   g.Triples,
		Optionals: g.Optionals,
		Unions:    g.Unions,
	}
	return e.evalGroup(ex, body, res)
}

func (e *Engine) evalUnion(ex *engine.Exec, u *sparql.Union, res *Result) (*engine.Relation, error) {
	var rel *engine.Relation
	for _, alt := range u.Alternatives {
		r, err := e.evalGroup(ex, alt, res)
		if err != nil {
			return nil, err
		}
		if rel == nil {
			rel = r
		} else {
			rel = ex.Union(rel, r)
		}
	}
	return rel, nil
}

// applyFilter evaluates a SPARQL filter over decoded bindings.
func (e *Engine) applyFilter(ex *engine.Exec, rel *engine.Relation, f sparql.Expression) *engine.Relation {
	pred := e.filterPred(rel.Schema, []sparql.Expression{f})
	return ex.Filter(rel, pred)
}

// filterPred builds a row predicate evaluating all exprs under the schema.
// Returns nil when exprs is empty.
func (e *Engine) filterPred(schema []string, exprs []sparql.Expression) func(engine.Row) bool {
	if len(exprs) == 0 {
		return nil
	}
	d := e.DS.Dict
	return func(row engine.Row) bool {
		b := make(sparql.Binding, len(schema))
		for i, name := range schema {
			if i < len(row) && row[i] != engine.Null {
				b[name] = d.Decode(row[i])
			}
		}
		for _, f := range exprs {
			if !f.Eval(b) {
				return false
			}
		}
		return true
	}
}

// joinedSchema returns left extended with right's new names. When right
// adds nothing — the common case once a star's hub variables are bound —
// left is returned as-is; callers treat schemas as immutable.
func joinedSchema(left, right []string) []string {
	extra := 0
	for _, name := range right {
		if indexOf(left, name) < 0 {
			extra++
		}
	}
	if extra == 0 {
		return left
	}
	out := make([]string, len(left), len(left)+extra)
	copy(out, left)
	for _, name := range right {
		if indexOf(out, name) < 0 {
			out = append(out, name)
		}
	}
	return out
}

func varsSubset(vars, schema []string) bool {
	for _, v := range vars {
		if indexOf(schema, v) < 0 {
			return false
		}
	}
	return true
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
