// Package s2rdf is a Go reproduction of "S2RDF: RDF Querying with SPARQL on
// Spark" (Schätzle et al., VLDB 2016).
//
// It loads RDF data into the paper's Extended Vertical Partitioning
// (ExtVP) layout — the vertical-partitioning tables plus precomputed
// semi-join reductions for every SS/OS/SO predicate correlation — and
// answers SPARQL queries by compiling them to relational plans over a
// partitioned, parallel, in-memory engine that plays the role of Spark SQL.
//
// Quick start:
//
//	st, err := s2rdf.LoadFile("data.nt")
//	if err != nil { ... }
//	res, err := st.Query(`SELECT ?who WHERE { ?who wsdbm:follows wsdbm:User0 }`)
//	for _, b := range res.Bindings() { fmt.Println(b["who"]) }
//
// The same store can execute queries against the baseline layouts the
// paper compares (plain vertical partitioning, a triples table, and a
// Sempala-style property table) via QueryMode, which the benchmark harness
// uses to regenerate the paper's experiments.
//
// # Serving over HTTP
//
// A store can serve SPARQL over HTTP, either in-process:
//
//	st, _ := s2rdf.LoadFile("data.nt")
//	h := s2rdf.NewHandler(st, s2rdf.ServerOptions{})
//	log.Fatal(s2rdf.ListenAndServe(ctx, ":8080", h, 0))
//
// or from a persisted store directory via the CLI:
//
//	s2rdf load  -in data.nt -store ./db
//	s2rdf serve -store ./db -addr :8080
//	curl 'http://localhost:8080/sparql?query=SELECT+%3Fs+WHERE+%7B+%3Fs+%3Curn:follows%3E+%3Furn:B%3E+%7D'
//
// The endpoint speaks the SPARQL protocol (GET ?query=, urlencoded POST,
// and application/sparql-query bodies) and returns the SPARQL 1.1 JSON
// results format. Queries execute on a bounded worker pool
// (ServerOptions.MaxConcurrent), and every response reports the query's
// metered cost in X-S2RDF-* headers. One process can serve several stores
// (NewMux routes /sparql/{store}; s2rdf serve -stores name=dir,...), each
// request may carry a deadline (?timeout=250ms, or ServerOptions
// defaults) that aborts the plan mid-operator with a 504, and shutdown
// drains in-flight queries (ListenAndServe, or SIGINT/SIGTERM under
// s2rdf serve). See docs/http-api.md for the endpoint contract.
//
// # Concurrency model
//
// A Store and its per-mode engines are safe for concurrent use. Each query
// executes with its own metrics context (engine.Exec), so Result.Metrics is
// exactly the work that query performed no matter how many queries are in
// flight; the shared engine.Cluster.Metrics keeps the cluster-wide running
// aggregate (the sum over all queries). Parsed query plans are memoized in
// a per-engine LRU keyed on whitespace-normalized query text, so repeated
// query strings — the common case behind an endpoint — skip the parser;
// Result.PlanCached reports whether a given execution hit that cache.
//
// # Query planning
//
// Queries are planned from the ExtVP statistics: table selection (the
// paper's Algorithm 1) picks the most selective reduction per pattern, the
// planner joins patterns greedy smallest-estimate-first without
// introducing cross joins, and each join broadcasts the estimated smaller
// side when replicating it to every partition moves fewer rows than
// shuffling both sides. Table selections are themselves memoized per BGP
// in a selection cache, so a repeated query skips Algorithm 1 too: the
// statistics never change once a store is loaded. The decisions are reported in
// Result.JoinOrder, Result.Joins and Result.SelectionCacheHits/Misses (and
// the corresponding X-S2RDF-* headers over HTTP).
//
// # Cancellation
//
// QueryContext and QueryModeContext bind a context.Context to the run.
// Every engine operator observes it at row-batch granularity (1024 rows),
// so a deadline or client disconnect stops scans, joins, sorts and
// aggregation mid-operator, frees the worker pool promptly, and surfaces
// as ctx.Err() — never as a truncated result.
package s2rdf

import (
	"context"
	"fmt"
	"io"
	"os"

	"s2rdf/internal/core"
	"s2rdf/internal/fault"
	"s2rdf/internal/layout"
	"s2rdf/internal/rdf"
)

// Mode selects the storage layout a query runs against.
type Mode = core.Mode

// Execution modes.
const (
	// ModeExtVP is the paper's contribution: statistics-driven selection
	// over semi-join-reduced tables.
	ModeExtVP = core.ModeExtVP
	// ModeVP is the plain vertical-partitioning baseline.
	ModeVP = core.ModeVP
	// ModeTT scans a single triples table.
	ModeTT = core.ModeTT
	// ModePT is the Sempala-style unified property table.
	ModePT = core.ModePT
)

// Result is a solved query; see core.Result.
type Result = core.Result

// Triple is an RDF statement.
type Triple = rdf.Triple

// Term is an RDF term in N-Triples surface syntax.
type Term = rdf.Term

// Options configures loading.
type Options struct {
	// Threshold is the ExtVP selectivity-factor threshold: tables with
	// SF >= Threshold are not materialized. 0 (or 1) keeps every useful
	// table; the paper recommends 0.25 as the sweet spot (Sec. 7.4).
	Threshold float64
	// DisableExtVP skips the semi-join preprocessing (VP-only store).
	DisableExtVP bool
	// BuildPropertyTable additionally builds the Sempala-style layout so
	// ModePT queries work.
	BuildPropertyTable bool
	// JoinOrderOptimization toggles the size-driven join ordering of the
	// paper's Algorithm 4 (on by default via Load).
	JoinOrderOptimization bool
	// BitVectors stores ExtVP reductions as bit vectors over the VP tables
	// instead of materialized copies — the compact representation the
	// paper proposes as future work (Sec. 8). Cuts the ExtVP storage
	// overhead from O(tuples) to |VP|/8 bytes per reduction.
	BitVectors bool
	// UnifyCorrelations additionally intersects all applicable reductions
	// per triple pattern (requires BitVectors) — the paper's proposed
	// unification strategy, giving strictly better input selectivity.
	UnifyCorrelations bool
	// Lazy enables "pay as you go" loading (paper Sec. 7) in Load: every
	// ExtVP candidate's statistics are counted at load, but a reduction's
	// rows are built only the first time a query selects it, and kept for
	// later queries. Open ignores it: a saved store carries its full
	// layout.
	Lazy bool
}

// Store is a loaded RDF dataset queryable in all supported modes.
type Store struct {
	ds      *layout.Dataset
	opts    Options
	engines map[Mode]*core.Engine
	// health is the store's fault-health state machine: detected data
	// corruption fails the store permanently, repeated spill-I/O failures
	// degrade it, successes heal it. Every mode engine reports its spill
	// outcomes here; the serving layer gates admission on it.
	health *fault.Health
}

// Load builds a store from triples.
func Load(triples []Triple, opts Options) *Store {
	lopts := layout.Options{
		Threshold:  opts.Threshold,
		BuildExtVP: !opts.DisableExtVP && !opts.Lazy,
		BuildPT:    opts.BuildPropertyTable,
		BitVectors: opts.BitVectors,
	}
	ds := layout.Build(triples, lopts)
	var lazy *layout.LazyExtVP
	if opts.Lazy && !opts.DisableExtVP {
		lazy = layout.NewLazyExtVP(ds)
	}
	return newStore(ds, opts, lazy)
}

// LoadReader builds a store from N-Triples input with default options.
func LoadReader(r io.Reader, opts Options) (*Store, error) {
	triples, err := rdf.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Load(triples, opts), nil
}

// LoadFile builds a store from an N-Triples file with default options.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadReader(f, Options{})
}

// Open reads a store previously persisted with Save.
func Open(dir string, opts Options) (*Store, error) {
	ds, err := layout.Load(dir, opts.BuildPropertyTable)
	if err != nil {
		return nil, err
	}
	return newStore(ds, opts, nil), nil
}

// Save persists the store (dictionary, tables and statistics) to dir.
func (s *Store) Save(dir string) error { return layout.Save(s.ds, dir) }

// newStore serves ds in every mode; lazy, when set, builds the ExtVP rows
// the ExtVP-mode engine selects.
func newStore(ds *layout.Dataset, opts Options, lazy *layout.LazyExtVP) *Store {
	s := &Store{
		ds:      ds,
		opts:    opts,
		engines: make(map[Mode]*core.Engine),
		health:  fault.NewHealth(),
	}
	for _, m := range []Mode{ModeExtVP, ModeVP, ModeTT, ModePT} {
		e := core.New(ds, m)
		e.UnifyCorrelations = opts.UnifyCorrelations
		e.Faults = s.health
		if m == ModeExtVP {
			e.Lazy = lazy
		}
		s.engines[m] = e
	}
	return s
}

// NewUnavailableStore returns a store whose health is permanently failed
// with the given reason. It answers no queries usefully (it holds an empty
// dataset) but keeps its route alive: the serving layer sees the failed
// health and answers 503 + Retry-After, so one corrupt store directory does
// not take the process — or its healthy sibling stores — down with it.
func NewUnavailableStore(reason string) *Store {
	st := Load(nil, Options{DisableExtVP: true})
	st.health.Fail(reason)
	return st
}

// Health returns the store's current fault-health snapshot: healthy,
// degraded (repeated spill-I/O failures) or failed (detected corruption).
// The serving layer refuses queries against failed stores with 503.
func (s *Store) Health() fault.HealthSnapshot { return s.health.Snapshot() }

// Faults exposes the store's health state machine, so integrity checks
// outside the query path (store loading, background scrubbing) can feed
// corruption and I/O signals into the same admission gate.
func (s *Store) Faults() *fault.Health { return s.health }

// SetFaultFS routes every mode engine's spill-file I/O through fs — the
// fault-injection seam the chaos tests use. A nil fs selects the real OS
// filesystem.
func (s *Store) SetFaultFS(fs fault.FS) {
	for _, e := range s.engines {
		e.FS = fs
	}
}

// Query executes a SPARQL query in ExtVP mode (or VP when ExtVP was
// disabled at load time).
func (s *Store) Query(src string) (*Result, error) {
	return s.QueryContext(context.Background(), src)
}

// QueryContext is Query bound to a context: when ctx is cancelled or its
// deadline passes, the plan is aborted mid-operator and ctx.Err() is
// returned. Use context.WithTimeout to put a deadline on a query.
func (s *Store) QueryContext(ctx context.Context, src string) (*Result, error) {
	mode := ModeExtVP
	if s.opts.DisableExtVP {
		mode = ModeVP
	}
	return s.QueryModeContext(ctx, mode, src)
}

// QueryMode executes a SPARQL query against a specific layout.
func (s *Store) QueryMode(mode Mode, src string) (*Result, error) {
	return s.QueryModeContext(context.Background(), mode, src)
}

// QueryModeContext executes a SPARQL query against a specific layout under
// ctx; see QueryContext for the cancellation contract.
func (s *Store) QueryModeContext(ctx context.Context, mode Mode, src string) (*Result, error) {
	e, ok := s.engines[mode]
	if !ok {
		return nil, fmt.Errorf("s2rdf: unknown mode %v", mode)
	}
	return e.QueryContext(ctx, src)
}

// Engine exposes the underlying compiler/executor for a mode (used by the
// benchmark harness and for EXPLAIN-style inspection).
func (s *Store) Engine(mode Mode) *core.Engine { return s.engines[mode] }

// SetMemBudget applies a per-query memory budget to every mode engine of
// the store: each query may hold at most budget bytes of accounted
// intermediate state, and join builds that would exceed it spill to sorted
// temp-file runs under dir (empty selects the OS temp directory). 0
// disables budgeting. Call before the store starts answering queries.
func (s *Store) SetMemBudget(budget int64, dir string) {
	for _, e := range s.engines {
		e.MemBudget = budget
		e.SpillDir = dir
	}
}

// SpilledBytes reports the total bytes the store's queries have written to
// spill runs since load, across every mode engine (each keeps its own
// cluster, so the sum counts every query exactly once).
func (s *Store) SpilledBytes() int64 {
	var n int64
	for _, e := range s.engines {
		n += e.Cluster.Metrics.BytesSpilled.Load()
	}
	return n
}

// CacheCounters is one memo cache's hit/miss record, summed across a
// store's mode engines; surfaced per store in the healthz document.
type CacheCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// CacheCounters reports the store's plan-cache and selection-cache totals
// across every mode engine. The per-query X-S2RDF-Plan-Cache and
// X-S2RDF-Selection-Cache headers carry the same information one request
// at a time; these are the running sums an operator watches.
func (s *Store) CacheCounters() (plan, sel CacheCounters) {
	for _, e := range s.engines {
		if e.Plans != nil {
			h, m := e.Plans.Stats()
			plan.Hits += h
			plan.Misses += m
		}
		if e.Selections != nil {
			h, m := e.Selections.Stats()
			sel.Hits += h
			sel.Misses += m
		}
	}
	return plan, sel
}

// Dataset exposes the loaded layouts and statistics.
func (s *Store) Dataset() *layout.Dataset { return s.ds }

// NumTriples returns |G|.
func (s *Store) NumTriples() int { return s.ds.NumTriples() }

// Sizes summarizes the layout sizes (paper Table 2 quantities).
func (s *Store) Sizes() layout.SizeSummary { return s.ds.Sizes() }
