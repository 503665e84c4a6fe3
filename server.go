package s2rdf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"s2rdf/internal/cache"
	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/fault"
	"s2rdf/internal/sched"
	"s2rdf/internal/sparql"
)

// failedStoreRetryAfter is the Retry-After a failed (corrupt) store answers
// with: long enough that well-behaved clients back off meaningfully, short
// enough that a repaired and restarted store is rediscovered quickly.
const failedStoreRetryAfter = 30 * time.Second

// ServerOptions configures the HTTP SPARQL endpoint.
type ServerOptions struct {
	// Mode is the default layout queries run against (overridable per
	// request with the "mode" parameter). The zero value is ModeExtVP.
	Mode Mode
	// MaxConcurrent bounds the number of queries executing at once per
	// store; every class of query draws on the same slots. Further
	// requests wait their turn in a bounded queue (and fail fast when the
	// client gives up), and an expensive query hands its slot to a waiter
	// at the end of each time slice, so point lookups wait at most a slice
	// behind analytics. <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds the admission queue per store. When every slot is
	// busy and the queue is full, further requests are rejected
	// immediately with 429 and a Retry-After estimate instead of queueing
	// without bound. <= 0 selects max(16, 4×MaxConcurrent).
	QueueDepth int
	// CheapThreshold is the cost-gate boundary: queries whose planner
	// cost estimate (max of total scan rows and peak intermediate rows)
	// is at or below it are cheap, everything above is expensive: time
	// sliced, and the only class the result cache admits. <= 0 selects
	// sched.DefaultCheapThreshold.
	CheapThreshold int
	// Slice is the execution time slice of expensive queries: at every
	// row-batch boundary past its slice, an expensive query gives its
	// worker slot to the longest-waiting query and re-queues, so N heavy
	// queries make proportional progress. <= 0 selects
	// sched.DefaultSlice.
	Slice time.Duration
	// MaxQueryLen rejects larger query bodies; <= 0 selects 1 MiB.
	MaxQueryLen int64
	// DefaultTimeout is the per-query deadline applied when a request does
	// not carry its own "timeout" parameter. The engine aborts the plan
	// mid-operator when the deadline passes and the request fails with
	// 504. 0 means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (and bounds requests with
	// no timeout at all when set), so one tenant cannot opt out of the
	// operator's latency budget. 0 means no cap.
	MaxTimeout time.Duration
	// StreamThreshold is the row count above which a SELECT response
	// switches from one buffered JSON document to incremental delivery:
	// the head and the first rows are flushed as soon as the threshold
	// trips, then every engine batch is flushed as it is encoded (up to
	// two batches encoded ahead of the write), so clients see first bytes
	// while the engine is still producing.
	// Results at or below the threshold (and ASK answers) are written as
	// one document, exactly as before. <= 0 selects
	// DefaultStreamThreshold.
	StreamThreshold int
	// MemBudget caps each query's accounted intermediate state in bytes:
	// join builds that would exceed it spill to sorted temp-file runs
	// (reported in X-S2RDF-Bytes-Spilled and the healthz spilled_bytes
	// gauge) instead of growing the heap. Applied to every store the
	// handler serves. 0 means no budget.
	MemBudget int64
	// SpillDir hosts the spill runs; empty selects the OS temp directory.
	SpillDir string
	// ResultCacheBytes enables the full-result cache: each store keeps a
	// byte-accounted LRU of this capacity mapping (mode, normalized query)
	// to the pre-serialized response body. Hits are served before the
	// cost gate — no admission, no queueing, no execution — with
	// X-S2RDF-Cache: hit and no plan or metrics headers (a hit did none of
	// that work); a miss executes like any other
	// request. Only expensive-class results whose body fits the per-entry
	// cap (an eighth of the budget) are cached, so point lookups don't
	// churn the LRU. 0 (the default) disables the cache.
	ResultCacheBytes int64

	// pacer, when non-nil, is composed into every query context as an
	// extra engine.Yielder, called at each row-batch boundary alongside
	// the scheduler ticket. Test hook: lets the streaming tests hold the
	// engine mid-production.
	pacer engine.Yielder
	// flushed, when non-nil, observes every streamed flush with the rows
	// delivered so far. Test hook.
	flushed func(rows int)
	// chaos, when non-nil, may return an extra Yielder for one request
	// (nil leaves the request alone), composed into its query context.
	// Test hook: lets the e2e chaos tests panic a chosen request
	// mid-execution while its neighbours keep streaming.
	chaos func(r *http.Request) engine.Yielder
}

// DefaultStreamThreshold is the StreamThreshold used when the options leave
// it zero: one engine batch, so any result that fits a single batch stays a
// single document.
const DefaultStreamThreshold = 1024

// sparqlServer answers SPARQL queries over HTTP with per-query metrics in
// response headers. Every query passes a per-store admission scheduler: all
// queries share its worker slots and bounded queue, and a cost gate
// classifies each cheap or expensive from the planner's estimates, so that
// expensive queries are time-sliced and make proportional progress. A
// traffic burst degrades into bounded queueing then fast 429 rejection,
// never unbounded goroutine fan-out; cancelled and timed-out queries
// release their slot as soon as the engine observes the context, not when
// the plan would have finished.
type sparqlServer struct {
	stores map[string]*servedStore
	def    string // name of the store served at /sparql
	opts   ServerOptions
}

// servedStore is one store and everything the server keeps beside it.
type servedStore struct {
	name  string
	st    *Store
	sched *sched.Scheduler
	// streaming counts in-flight incrementally-delivered responses (the
	// healthz "streaming" gauge). A worker slot is held for exactly as long
	// as this gauge counts the query: release moved from result-computed to
	// stream-complete with the streaming pipeline.
	streaming atomic.Int64
	// rcache is the full-result cache; nil when ResultCacheBytes is 0
	// (caching disabled).
	rcache *cache.ResultCache
}

// DefaultStoreName is the name NewHandler registers its single store under,
// so /sparql/default and /sparql are the same endpoint.
const DefaultStoreName = "default"

// NewHandler returns an HTTP handler exposing a single store st:
//
//	GET  /sparql?query=...        — execute a SPARQL query
//	POST /sparql                  — query= form field or raw
//	                                application/sparql-query body
//	GET  /healthz                 — liveness probe
//
// It is NewMux with st registered as the default store. Results use the
// SPARQL 1.1 JSON results format; each response carries the query's exact
// per-query engine metrics in X-S2RDF-* headers.
func NewHandler(st *Store, opts ServerOptions) http.Handler {
	h, err := NewMux(map[string]*Store{DefaultStoreName: st}, DefaultStoreName, opts)
	if err != nil {
		panic(err) // unreachable: the single-store config is always valid
	}
	return h
}

// NewMux returns an HTTP handler serving several stores from one process:
//
//	/sparql                — queries against the default store
//	/sparql/{store}        — queries against the named store
//	/healthz               — liveness probe listing every store
//
// defaultStore must name an entry of stores; it may be empty when stores
// has exactly one entry, which then serves as the default. Each store keeps
// its own engines, selection caches and admission scheduler (MaxConcurrent
// worker slots), so one tenant's analytics cannot exhaust another tenant's
// budget.
func NewMux(stores map[string]*Store, defaultStore string, opts ServerOptions) (http.Handler, error) {
	if len(stores) == 0 {
		return nil, errors.New("s2rdf: NewMux needs at least one store")
	}
	for name := range stores {
		// A name must be a single, non-empty path segment or the
		// /sparql/{store} route can never reach it.
		if name == "" || strings.ContainsAny(name, "/?#") {
			return nil, fmt.Errorf("s2rdf: store name %q is not routable (must be one non-empty path segment)", name)
		}
	}
	if defaultStore == "" && len(stores) == 1 {
		for name := range stores {
			defaultStore = name
		}
	}
	if _, ok := stores[defaultStore]; !ok {
		return nil, fmt.Errorf("s2rdf: default store %q not registered", defaultStore)
	}
	if opts.MaxQueryLen <= 0 {
		opts.MaxQueryLen = 1 << 20
	}
	s := &sparqlServer{
		stores: make(map[string]*servedStore, len(stores)),
		def:    defaultStore,
		opts:   opts,
	}
	for name, st := range stores {
		sv := &servedStore{
			name: name,
			st:   st,
			sched: sched.New(sched.Options{
				MaxConcurrent: opts.MaxConcurrent,
				QueueDepth:    opts.QueueDepth,
				Slice:         opts.Slice,
			}),
			rcache: cache.New(opts.ResultCacheBytes, 0),
		}
		if opts.MemBudget > 0 {
			st.SetMemBudget(opts.MemBudget, opts.SpillDir)
		}
		s.stores[name] = sv
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", func(w http.ResponseWriter, r *http.Request) {
		s.serveRecovered(w, r, s.def)
	})
	mux.HandleFunc("/sparql/{store}", func(w http.ResponseWriter, r *http.Request) {
		s.serveRecovered(w, r, r.PathValue("store"))
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux, nil
}

// trackingWriter records whether any part of the response reached the wire,
// so the panic boundary below knows whether a 500 status line can still be
// written. It forwards Flush so the streaming path keeps working through it.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(p)
}

func (t *trackingWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// FlushError is Flush reporting the connection's write error, so a
// streamed response stops at the first failed write.
func (t *trackingWriter) FlushError() error {
	if f, ok := t.ResponseWriter.(interface{ FlushError() error }); ok {
		return f.FlushError()
	}
	t.Flush()
	return nil
}

// serveRecovered is the handler-level panic boundary, the last line behind
// the per-query recovery in core: a panic that still escapes the handler
// becomes a 500 when no byte has been written yet, and a closed (truncated)
// connection when the response was already underway — never a crashed
// process. http.ErrAbortHandler passes through: it is the deliberate
// mid-stream abort signal and must reach net/http unchanged.
func (s *sparqlServer) serveRecovered(w http.ResponseWriter, r *http.Request, storeName string) {
	tw := &trackingWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		if !tw.wrote {
			httpError(tw, http.StatusInternalServerError,
				fmt.Sprintf("internal error: %v", rec))
			return
		}
		panic(http.ErrAbortHandler)
	}()
	s.handleSPARQL(tw, r, storeName)
}

func (s *sparqlServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type storeInfo struct {
		Triples int  `json:"triples"`
		Default bool `json:"default,omitempty"`
		// Sched exposes the store's admission-scheduler gauges and
		// counters, so operators (and the e2e tests) can watch queue depth
		// drain and verify the in-flight gauges return to zero.
		Sched sched.Stats `json:"sched"`
		// Streaming counts responses currently being delivered
		// incrementally (head written, stream not yet drained).
		Streaming int64 `json:"streaming"`
		// SpilledBytes is the total the store's queries have written to
		// join spill runs since load, across every mode engine.
		SpilledBytes int64 `json:"spilled_bytes"`
		// Health is the store's fault-health record: healthy, degraded
		// (repeated spill-I/O failures) or failed (detected corruption,
		// refusing queries with 503).
		Health fault.HealthSnapshot `json:"health"`
		// ResultCache is the store's full-result cache record — the cached
		// lane. Omitted when serving without -result-cache-bytes.
		ResultCache *cache.Stats `json:"result_cache,omitempty"`
		// SelectionCache surfaces the selection cache's counters, summed
		// across the store's mode engines.
		SelectionCache CacheCounters `json:"selection_cache"`
	}
	doc := struct {
		Status  string               `json:"status"`
		Triples int                  `json:"triples"`
		Stores  map[string]storeInfo `json:"stores"`
	}{Status: "ok", Stores: make(map[string]storeInfo, len(s.stores))}
	for name, sv := range s.stores {
		health := sv.st.Health()
		info := storeInfo{
			Triples:        sv.st.NumTriples(),
			Default:        name == s.def,
			Sched:          sv.sched.Stats(),
			Streaming:      sv.streaming.Load(),
			SpilledBytes:   sv.st.SpilledBytes(),
			Health:         health,
			SelectionCache: sv.st.CacheCounters(),
		}
		if sv.rcache != nil {
			cs := sv.rcache.Stats()
			info.ResultCache = &cs
		}
		doc.Stores[name] = info
		// The process answers ok as long as it serves; any unhealthy store
		// flips the summary status so probes see trouble at a glance.
		if health.State != fault.Healthy.String() && doc.Status == "ok" {
			doc.Status = health.State
		}
	}
	doc.Triples = s.stores[s.def].st.NumTriples()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&doc)
}

// request is one /sparql request descending the serving pipeline. Each stage
// of handleSPARQL fills the fields listed under it; later stages, the header
// renderer and the error mapper read them.
type request struct {
	s *sparqlServer
	w *trackingWriter
	r *http.Request

	// route
	sv *servedStore
	// parseProtocol
	src     string
	mode    Mode
	timeout time.Duration // 0 = no deadline
	// probeCache (zero when caching is off)
	ckey cache.Key
	// the handler: the request context under its deadline, its cancel
	// (a response that fails mid-stream stops its own query), and where a
	// context error struck ("while queued", …) for its message
	ctx    context.Context
	cancel context.CancelFunc
	phase  string
	// parse
	q *sparql.Query
	// gate: the query's one plan, and its price
	plan  *core.QueryPlan
	cost  core.CostEstimate
	class sched.Class
	// admit
	ticket *sched.Ticket
	// execute
	stream *core.Stream
}

// handleSPARQL runs one request through the stages, in order: route, parse
// protocol, result-cache probe, parse, plan and cost gate, admit, execute
// the plan, respond. A stage that fails ends the
// request through fail, the one place errors become statuses.
func (s *sparqlServer) handleSPARQL(w *trackingWriter, r *http.Request, storeName string) {
	req := &request{s: s, w: w, r: r, ctx: r.Context()}
	if req.fail(req.route(storeName)) || req.fail(req.parseProtocol()) {
		return
	}
	// A result-cache hit is served before the cost gate and admission: no
	// queueing, no execution, exempt from 429.
	if req.probeCache() {
		return
	}
	// The deadline covers the whole stay: queue wait plus execution. The
	// context is also cancelled when the client disconnects, or when a
	// streamed response fails to write, which aborts the plan mid-operator
	// and frees the worker slot.
	if req.timeout > 0 {
		req.ctx, req.cancel = context.WithTimeout(req.ctx, req.timeout)
	} else {
		req.ctx, req.cancel = context.WithCancel(req.ctx)
	}
	defer req.cancel()
	// A parse error is rejected here, so malformed queries never enter the
	// queue; the gate classifies before the query occupies any slot.
	if req.fail(req.parse()) {
		return
	}
	req.gate()
	if req.fail(req.admit()) {
		return
	}
	// The ticket is released when the handler returns — stream-complete (or
	// abandonment), not result-computed: a worker slot is held for exactly
	// as long as rows still flow to the client.
	defer req.ticket.Release()
	if req.fail(req.execute()) {
		return
	}
	req.respond()
}

// statusError is a failure whose HTTP status is known where it is detected.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

var (
	// errQueryTooLarge marks a query past MaxQueryLen (413).
	errQueryTooLarge = errors.New("query too large")
	// errMethodNotAllowed marks a method other than GET and POST (405).
	errMethodNotAllowed = errors.New("not allowed")
)

// fail ends the request with the status err maps to, reporting whether it
// did (a nil err is no failure). It is the only place a protocol, parse,
// admission, execution or stream error becomes a status code; it can only
// run before the first body byte — later failures truncate the stream.
func (req *request) fail(err error) bool {
	if err == nil {
		return false
	}
	h := req.w.Header()
	status, msg := http.StatusBadRequest, err.Error() // parse errors and the like
	var known *statusError
	var maxBytes *http.MaxBytesError
	var full *sched.QueueFullError
	switch {
	case errors.As(err, &known):
		status = known.status
	case errors.Is(err, errQueryTooLarge), errors.As(err, &maxBytes):
		status = http.StatusRequestEntityTooLarge
		msg = fmt.Sprintf("query exceeds %d bytes", req.s.opts.MaxQueryLen)
	case errors.Is(err, errMethodNotAllowed):
		status = http.StatusMethodNotAllowed
		h.Set("Allow", "GET, POST")
	case errors.As(err, &full):
		// Backpressure: every slot is busy and the queue is full.
		status = http.StatusTooManyRequests
		msg = "admission queue full, retry later"
		h.Set("Retry-After", strconv.Itoa(retryAfterSeconds(full.RetryAfter)))
	case errors.Is(err, context.DeadlineExceeded):
		status, msg = http.StatusGatewayTimeout, "query deadline exceeded "+req.phase
	case errors.Is(err, context.Canceled):
		// The client went away: the response is written into the void, but
		// keeps logs and tests honest.
		status, msg = http.StatusServiceUnavailable, "request cancelled "+req.phase
	case errors.Is(err, core.ErrInternal):
		// An operator panic recovered at the query boundary: the server's
		// fault, not the request's — and the process keeps serving.
		status = http.StatusInternalServerError
	}
	req.setHeaders(nil)
	httpError(req.w, status, msg)
	return true
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// route resolves the store. Every /sparql response reports the store's
// health, and a failed store (detected data corruption) refuses admission
// outright: wrong bindings must never leave the process, and a 503 with
// Retry-After tells load balancers to route around the store while its
// siblings keep serving.
func (req *request) route(storeName string) error {
	sv, ok := req.s.stores[storeName]
	if !ok {
		known := make([]string, 0, len(req.s.stores))
		for name := range req.s.stores {
			known = append(known, name)
		}
		sort.Strings(known)
		return &statusError{http.StatusNotFound,
			fmt.Sprintf("unknown store %q (stores: %s)", storeName, strings.Join(known, ", "))}
	}
	req.sv = sv
	faults := sv.st.Faults()
	state := faults.State()
	req.w.Header().Set("X-S2RDF-Store-Health", state.String())
	if state != fault.Failed {
		return nil
	}
	req.w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(failedStoreRetryAfter)))
	reason := faults.Reason()
	if reason == "" {
		reason = "data corruption detected"
	}
	return &statusError{http.StatusServiceUnavailable,
		fmt.Sprintf("store %q is unavailable: %s", storeName, reason)}
}

// parseProtocol reads the request per the SPARQL protocol — GET ?query=,
// urlencoded POST query=, or a raw application/sparql-query body — plus the
// "mode" and "timeout" parameters, which the URL or a form body may carry.
func (req *request) parseProtocol() error {
	r, max := req.r, req.s.opts.MaxQueryLen
	params := r.URL.Query()
	switch r.Method {
	case http.MethodGet:
		req.src = params.Get("query")
	case http.MethodPost:
		ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
		if strings.TrimSpace(ct) == "application/sparql-query" {
			body, err := io.ReadAll(io.LimitReader(r.Body, max+1))
			if err != nil {
				return err
			}
			req.src = string(body)
			break
		}
		r.Body = http.MaxBytesReader(nil, r.Body, max)
		if err := r.ParseForm(); err != nil {
			return err
		}
		req.src = r.PostForm.Get("query")
	default:
		return fmt.Errorf("method %s %w", r.Method, errMethodNotAllowed)
	}
	if strings.TrimSpace(req.src) == "" {
		return &statusError{http.StatusBadRequest, "missing query parameter"}
	}
	if int64(len(req.src)) > max {
		return errQueryTooLarge
	}
	param := func(name string) string {
		if v := params.Get(name); v != "" {
			return v
		}
		return r.PostForm.Get(name)
	}
	req.mode = req.s.opts.Mode
	if m := param("mode"); m != "" {
		var ok bool
		if req.mode, ok = ParseMode(m); !ok {
			return fmt.Errorf("unknown mode %q", m)
		}
	}
	var err error
	req.timeout, err = req.s.requestTimeout(param("timeout"))
	return err
}

// requestTimeout resolves the query deadline: the request's "timeout"
// parameter (a Go duration like "250ms", or a plain integer meaning
// milliseconds), else the server default, both clamped to MaxTimeout.
// A zero result means the query runs without a deadline.
func (s *sparqlServer) requestTimeout(raw string) (time.Duration, error) {
	d := s.opts.DefaultTimeout
	if raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil {
			// Beyond maxMs the conversion to a Duration would wrap.
			const maxMs = math.MaxInt64 / int64(time.Millisecond)
			ms, merr := strconv.ParseInt(raw, 10, 64)
			if merr != nil || ms > maxMs || ms < -maxMs {
				return 0, fmt.Errorf("invalid timeout %q (use a duration like 250ms)", raw)
			}
			parsed = time.Duration(ms) * time.Millisecond
		}
		if parsed <= 0 {
			return 0, fmt.Errorf("timeout must be positive, got %q", raw)
		}
		d = parsed
	}
	if max := s.opts.MaxTimeout; max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d, nil
}

// probeCache answers the request from the result cache when it can: the
// pre-serialized body, its type and length, the mode and X-S2RDF-Cache: hit
// (route has already stamped the store's health). A hit did no work of its
// own, so it reports no plan, metrics or queueing. The key holds the
// normalized query text, so reformatted copies of a query share an entry.
func (req *request) probeCache() bool {
	rc := req.sv.rcache
	if rc == nil {
		return false
	}
	req.ckey = cache.Key{
		Store: req.sv.name,
		Mode:  req.mode.String(),
		Query: core.NormalizeQuery(req.src),
	}
	ent, ok := rc.Get(req.ckey)
	if !ok {
		return false
	}
	h := req.w.Header()
	h.Set("Content-Type", "application/sparql-results+json")
	h.Set("Content-Length", strconv.Itoa(len(ent.Body)))
	h.Set("X-S2RDF-Mode", req.mode.String())
	h.Set("X-S2RDF-Cache", "hit")
	req.w.Write(ent.Body)
	return true
}

func (req *request) engine() *core.Engine { return req.sv.st.Engine(req.mode) }

// parse parses the query text, once.
func (req *request) parse() (err error) {
	req.q, err = sparql.Parse(req.src)
	return err
}

// gate plans the query, once, and classifies it on that plan's estimates:
// the plan execute then runs.
func (req *request) gate() {
	req.plan = req.engine().PlanQuery(req.q)
	req.cost = req.plan.Cost()
	req.class = sched.Classify(req.cost.Cost(), req.s.opts.CheapThreshold)
}

// admit waits for a worker slot. A full queue rejects immediately (429 +
// Retry-After); a deadline or client disconnect while queued withdraws the
// request without it ever executing.
func (req *request) admit() (err error) {
	req.phase = "while queued"
	req.ticket, err = req.sv.sched.Admit(req.ctx, req.class)
	return err
}

// execute runs the plan to its final relation. Expensive queries carry the
// ticket as the engine's yield hook: at every row-batch boundary past the
// time slice they give up the slot and re-queue, so concurrent heavy
// queries share the slots fairly. Each streamed batch is such a boundary, so
// a slow consumer yields too. The test hooks, when set, ride the same hook.
func (req *request) execute() (err error) {
	req.phase = "during execution"
	var yielders yieldChain
	if req.class == sched.Expensive {
		yielders = append(yielders, req.ticket)
	}
	if req.s.opts.pacer != nil {
		yielders = append(yielders, req.s.opts.pacer)
	}
	if req.s.opts.chaos != nil {
		if y := req.s.opts.chaos(req.r); y != nil {
			yielders = append(yielders, y)
		}
	}
	ctx := req.ctx
	switch len(yielders) {
	case 0:
	case 1:
		ctx = engine.WithYielder(ctx, yielders[0])
	default:
		ctx = engine.WithYielder(ctx, yielders)
	}
	req.stream, err = req.engine().ExecPlan(ctx, req.plan)
	return err
}

// yieldChain fans one engine yield point out to several hooks (the sched
// ticket plus the test pacer).
type yieldChain []engine.Yielder

func (c yieldChain) Yield() {
	for _, y := range c {
		y.Yield()
	}
}

// setHeaders renders everything the request knows about itself so far: from
// the cost gate on, the verdict and estimate; once admitted, the time spent
// queued, how often the query yielded its slot and the store's current
// queue depth; and with res, the per-query engine metrics (on the streaming
// path a snapshot as of the first flush, not the final totals), including
// the selection-cache status of the query's one planning.
func (req *request) setHeaders(res *Result) {
	h := req.w.Header()
	itoa := func(n int64) string { return strconv.FormatInt(n, 10) }
	if req.plan != nil {
		h.Set("X-S2RDF-Query-Class", req.class.String())
		h.Set("X-S2RDF-Cost-Estimate", strconv.Itoa(req.cost.Cost()))
	}
	if t := req.ticket; t != nil {
		h.Set("X-S2RDF-Queue-Wait", t.QueueWait().String())
		h.Set("X-S2RDF-Sched-Yields", strconv.Itoa(t.Yields()))
		h.Set("X-S2RDF-Queue-Depth", strconv.Itoa(req.sv.sched.Stats().Queued))
	}
	if res == nil {
		return
	}
	h.Set("Content-Type", "application/sparql-results+json")
	h.Set("X-S2RDF-Mode", req.mode.String())
	h.Set("X-S2RDF-Duration", res.Duration.String())
	h.Set("X-S2RDF-TTFR", res.TimeToFirstRow.String())
	h.Set("X-S2RDF-Peak-Mem", itoa(res.PeakMemBytes))
	h.Set("X-S2RDF-Rows-Scanned", itoa(res.Metrics.RowsScanned))
	h.Set("X-S2RDF-Rows-Pruned", itoa(res.Metrics.RowsPruned))
	h.Set("X-S2RDF-Rows-Shuffled", itoa(res.Metrics.RowsShuffled))
	h.Set("X-S2RDF-Rows-Sorted", itoa(res.Metrics.RowsSorted))
	h.Set("X-S2RDF-Bytes-Spilled", itoa(res.Metrics.BytesSpilled))
	h.Set("X-S2RDF-Join-Comparisons", itoa(res.Metrics.JoinComparisons))
	h.Set("X-S2RDF-Rows-Output", itoa(res.Metrics.RowsOutput))
	h.Set("X-S2RDF-Tasks", itoa(res.Metrics.Tasks))
	switch {
	case res.SelectionCacheMisses > 0:
		h.Set("X-S2RDF-Selection-Cache", "miss")
	case res.SelectionCacheHits > 0:
		h.Set("X-S2RDF-Selection-Cache", "hit")
	}
	if len(res.JoinOrder) > 0 {
		order := make([]string, len(res.JoinOrder))
		for i, idx := range res.JoinOrder {
			order[i] = strconv.Itoa(idx)
		}
		h.Set("X-S2RDF-Join-Order", strings.Join(order, ","))
	}
	if len(res.Joins) > 0 {
		strategies := make([]string, len(res.Joins))
		shuffled := make([]string, len(res.Joins))
		for i, j := range res.Joins {
			strategies[i] = j.Strategy
			shuffled[i] = itoa(j.RowsShuffled)
		}
		h.Set("X-S2RDF-Join-Strategies", strings.Join(strategies, ","))
		h.Set("X-S2RDF-Join-Shuffled", strings.Join(shuffled, ","))
	}
	if res.StatsOnly {
		h.Set("X-S2RDF-Stats-Only", "true")
	}
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up so clients never retry early.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ParseMode resolves a layout-mode name (case-insensitive); ok is false for
// unknown names.
func ParseMode(name string) (Mode, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "EXTVP":
		return ModeExtVP, true
	case "VP":
		return ModeVP, true
	case "TT":
		return ModeTT, true
	case "PT":
		return ModePT, true
	}
	return ModeExtVP, false
}

// DefaultDrainTimeout bounds graceful shutdown when the caller passes no
// explicit drain budget to ListenAndServe or ServeListener.
const DefaultDrainTimeout = 30 * time.Second

// ListenAndServe serves h on addr until ctx is cancelled, then drains:
// new connections are refused, in-flight requests (and their queries) get
// up to drain (0 selects DefaultDrainTimeout) to finish before the server
// is torn down. It returns nil after a clean drain, the shutdown error
// after a dirty one, and the listener error if serving fails first.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, h, drain)
}

// ServeListener is ListenAndServe over an existing listener, which the
// caller may use to bind port 0 and discover the address. The listener is
// closed by the time ServeListener returns.
func ServeListener(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}
