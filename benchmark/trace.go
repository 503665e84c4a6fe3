package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"s2rdf"
	"s2rdf/internal/cache"
	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/sched"
	"s2rdf/internal/sparql"
)

// span is one timed call. Spans of one sampled query share a trace id; the
// parent is the span that caused it (0 for a root). Times are nanoseconds
// since the tracer was made. Counts are taken at the same boundary as the
// times, so ratios are measured where the work happens.
type span struct {
	Trace  int              `json:"trace"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. One goroutine uses it.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(trace, parent int, name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

func (t *tracer) count(id int, key string, n int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[key] += n
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice,
// and a child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// Span names. A layer is the module before the first dot.
const (
	spanQuery     = "query"   // root: one sampled query
	spanRequest   = "request" // the query over HTTP, as a client sees it
	spanReplay    = "replay"  // the same query through the layers, in process
	spanNormalize = "core.NormalizeQuery"
	spanParse     = "sparql.Parse"
	spanCostGate  = "core.EstimateCostNorm"
	spanAdmit     = "sched.Admit"
	spanExec      = "core.ExecStream"
	spanDecode    = "core.Stream.NextRaw"
	spanRender    = "dict.TermJSON"
	spanRelease   = "sched.Release"
	// residualName is request minus replay: what the in-process replay does
	// not do — the handler, streamEncoder, flushes and the loopback socket.
	residualName = "s2rdf.serve_overhead"
)

// replayer re-runs sampled queries through the layers' public functions in
// the order handleSPARQL calls them.
type replayer struct {
	t     *tracer
	store *s2rdf.Store
	sc    *sched.Scheduler
	c     *client
	// engine work of the replays, summed over the sample
	work       engine.MetricsSnapshot
	resultRows int64
	terms      int64
}

func newReplayer(t *tracer, e *env, c *client) *replayer {
	return &replayer{
		t:     t,
		store: e.store,
		sc:    sched.New(sched.Options{MaxConcurrent: runtime.GOMAXPROCS(0)}),
		c:     c,
	}
}

// one sends q over HTTP under a request span, then replays it under a
// replay span. The replay takes the lane the request reported: a result
// cache hit or a coalesced reply did nothing but normalize the text; a plan
// cache hit did not parse; and when the request missed the selection cache
// the replay starts from an empty one too, so Algorithm 1 runs in the cost
// gate as it did for the request. (The engine's caches are otherwise as the
// request left them, which is how the next request would find them.)
func (p *replayer) one(trace int, q query) error {
	t := p.t
	root := t.begin(trace, 0, spanQuery)
	defer t.end(root)

	reqSpan := t.begin(trace, root, spanRequest)
	r := p.c.do(&q, time.Now(), true)
	t.end(reqSpan)
	if r.fail != "" {
		return fmt.Errorf("traced request %s: %s", q.template, r.fail)
	}
	t.count(reqSpan, "rows", r.rows)
	t.count(reqSpan, "bytes", r.bytes)

	eng := p.store.Engine(s2rdf.ModeExtVP)
	if r.header.Get("X-S2RDF-Selection-Cache") == "miss" {
		eng.Selections = core.NewSelectionCache(core.DefaultSelectionCacheSize)
	}
	lane := r.header.Get("X-S2RDF-Cache")
	planMiss := r.header.Get("X-S2RDF-Plan-Cache") == "miss"
	var parsed *sparql.Query
	var err error
	if !planMiss {
		// The request took the parsed query from the plan cache; the
		// replay needs one to hand to ExecStream, parsed off the clock.
		if parsed, err = sparql.Parse(q.text); err != nil {
			return err
		}
	}

	replay := t.begin(trace, root, spanReplay)
	defer t.end(replay)
	step := func(name string, f func()) int {
		id := t.begin(trace, replay, name)
		f()
		t.end(id)
		return id
	}

	var norm string
	step(spanNormalize, func() { norm = core.NormalizeQuery(q.text) })
	if lane == "hit" || lane == "coalesced" {
		return nil
	}
	if planMiss {
		step(spanParse, func() { parsed, err = sparql.Parse(q.text) })
		if err != nil {
			return err
		}
	}
	var cost core.CostEstimate
	step(spanCostGate, func() { cost, err = eng.EstimateCostNorm(q.text, norm) })
	if err != nil {
		return err
	}
	class := sched.Classify(cost.Cost(), 0)
	var ticket *sched.Ticket
	step(spanAdmit, func() { ticket, err = p.sc.Admit(context.Background(), class) })
	if err != nil {
		return err
	}
	ctx := context.Background()
	if class == sched.Expensive {
		ctx = engine.WithYielder(ctx, ticket)
	}
	var stream *core.Stream
	execSpan := step(spanExec, func() { stream, err = eng.ExecStream(ctx, parsed) })
	if err != nil {
		ticket.Release()
		return err
	}
	var rows []engine.Row
	decode := step(spanDecode, func() {
		for {
			var batch []engine.Row
			if batch, err = stream.NextRaw(); err != nil || batch == nil {
				return
			}
			rows = append(rows, batch...)
		}
	})
	if err != nil {
		ticket.Release()
		return err
	}
	d := p.store.Dataset().Dict
	terms := int64(0)
	render := step(spanRender, func() {
		for _, row := range rows {
			for _, id := range row {
				if id != engine.Null {
					_ = d.TermJSON(id)
					terms++
				}
			}
		}
	})
	step(spanRelease, ticket.Release)

	m := stream.Result().Metrics
	t.count(execSpan, "rows_scanned", m.RowsScanned)
	t.count(execSpan, "rows_pruned", m.RowsPruned)
	t.count(execSpan, "rows_shuffled", m.RowsShuffled)
	t.count(execSpan, "join_comparisons", m.JoinComparisons)
	t.count(execSpan, "rows_sorted", m.RowsSorted)
	t.count(execSpan, "bytes_spilled", m.BytesSpilled)
	t.count(decode, "rows", int64(len(rows)))
	t.count(render, "terms", terms)
	p.work = p.work.Add(m)
	p.resultRows += int64(len(rows))
	p.terms += terms
	if int64(len(rows)) != r.rows {
		return fmt.Errorf("traced %s: replay produced %d solutions, HTTP delivered %d", q.template, len(rows), r.rows)
	}
	return nil
}

// layerReport is what the traced sample says about where time goes.
type layerReport struct {
	queries      int
	medianUs     map[string]float64 // span name → median duration, µs
	selfShare    map[string]float64 // span name or residualName → share of request time
	dominant     string
	coverage     float64 // share of all replay time that child spans cover
	requestMedUs float64
	replayMedUs  float64
	overheadUs   float64 // median of request − replay per query
}

func analyse(spans []span) layerReport {
	rep := layerReport{medianUs: map[string]float64{}, selfShare: map[string]float64{}}
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfSum := make(map[string]float64)
	reqOf, replayOf := map[int]span{}, map[int]span{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		switch s.Name {
		case spanRequest:
			reqOf[s.Trace] = s
		case spanReplay:
			replayOf[s.Trace] = s
		case spanQuery:
		default:
			selfSum[s.Name] += float64(self[s.ID])
		}
	}
	for name, d := range durs {
		rep.medianUs[name] = median(d)
	}
	var requestTotal, residual float64
	var over []float64
	var replayTotal, replaySelf float64
	for trace, rq := range reqOf {
		rp, ok := replayOf[trace]
		if !ok {
			continue
		}
		rep.queries++
		requestTotal += float64(rq.dur())
		residual += float64(rq.dur() - rp.dur())
		over = append(over, float64(rq.dur()-rp.dur())/1e3)
		replayTotal += float64(rp.dur())
		replaySelf += float64(self[rp.ID])
	}
	rep.requestMedUs, rep.replayMedUs = rep.medianUs[spanRequest], rep.medianUs[spanReplay]
	rep.overheadUs = median(over)
	rep.medianUs[residualName] = rep.overheadUs
	if replayTotal > 0 {
		rep.coverage = 1 - replaySelf/replayTotal
	}
	if requestTotal > 0 {
		for name, ns := range selfSum {
			rep.selfShare[name] = ns / requestTotal
		}
		rep.selfShare[residualName] = residual / requestTotal
	}
	for name, share := range rep.selfShare {
		if rep.dominant == "" || share > rep.selfShare[rep.dominant] ||
			(share == rep.selfShare[rep.dominant] && name < rep.dominant) {
			rep.dominant = name
		}
	}
	return rep
}

// writeTrace writes the spans and the run record to dir/trace.json.
func writeTrace(dir string, rec runRecord, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Run   runRecord `json:"run"`
		Spans []span    `json:"spans"`
	}{rec, spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// headerStats are the layer metrics the server reports per response.
// Queue wait, class and plan/selection cache status are read from executed
// responses only.
type headerStats struct {
	queueWaitUs                  []float64 // sorted
	classed, expensive           int
	cached, hits, coalesced      int
	planSeen, planHits           int
	selectionSeen, selectionHits int
	rejected, attempted          int
}

func readHeaders(w window) headerStats {
	hs := headerStats{attempted: w.attempted, rejected: w.failReasons["status 429"]}
	for _, h := range w.headers {
		lane := h.Get("X-S2RDF-Cache")
		if lane != "" {
			hs.cached++
		}
		switch lane {
		case "hit":
			hs.hits++
			continue // its other headers replay the request that filled the cache
		case "coalesced":
			hs.coalesced++
			continue
		}
		if v := h.Get("X-S2RDF-Queue-Wait"); v != "" {
			if d, err := time.ParseDuration(v); err == nil {
				hs.queueWaitUs = append(hs.queueWaitUs, float64(d)/1e3)
			}
		}
		if v := h.Get("X-S2RDF-Query-Class"); v != "" {
			hs.classed++
			if v == sched.Expensive.String() {
				hs.expensive++
			}
		}
		if v := h.Get("X-S2RDF-Plan-Cache"); v != "" {
			hs.planSeen++
			if v == "hit" {
				hs.planHits++
			}
		}
		if v := h.Get("X-S2RDF-Selection-Cache"); v != "" {
			hs.selectionSeen++
			if v == "hit" {
				hs.selectionHits++
			}
		}
	}
	sort.Float64s(hs.queueWaitUs)
	return hs
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// resultCacheStats reads the default store's result-cache record from
// /healthz (all zero when the cache is off).
func resultCacheStats(baseURL string) (cache.Stats, error) {
	var stats cache.Stats
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	var doc struct {
		Stores map[string]struct {
			ResultCache *cache.Stats `json:"result_cache"`
		} `json:"stores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return stats, fmt.Errorf("healthz: %w", err)
	}
	if rc := doc.Stores[s2rdf.DefaultStoreName].ResultCache; rc != nil {
		stats = *rc
	}
	return stats, nil
}
