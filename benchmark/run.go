package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"s2rdf"
	"s2rdf/internal/dict"
	"s2rdf/internal/layout"
	"s2rdf/internal/watdiv"
)

const (
	outDir = "out" // relative to the benchmark directory, where runs start
	// setupRepeats is how many times a timed run sets up from scratch;
	// setup_s is the median. The traced run sets up once.
	setupRepeats = 3
	// refSample is how many queries are checked against internal/ref.
	refSample = 40
	// warmShare of the window length is spent warming up, untimed, first.
	warmShare = 0.15
)

// runWorkload is one run of one workload: answer checks, set-up, warm-up,
// then either the timed window (end-to-end metrics) or the traced windows
// and sample (per-layer metrics). The human-readable report goes to report.
func runWorkload(w workload, seed int64, seconds int, traced bool, report io.Writer) (out outcome, err error) {
	out.record = newRunRecord(w, seed, seconds, traced)
	out.metrics = make(map[string]float64)
	out.record.print(report)

	phase := time.Now()
	if err := checkAgainstRef(w, seed, refSample); err != nil {
		return out, fmt.Errorf("answer check: %w", err)
	}
	refTook := time.Since(phase)

	dir := filepath.Join(outDir, fmt.Sprintf("store-%s-%d", w.name, seed))
	defer os.RemoveAll(dir)
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var e *env
	var totals []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return out, err
			}
			e = nil
			runtime.GC()
		}
		if e, err = setUp(dir, w.cacheBytes); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, e.times.total().Seconds())
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	t := e.times
	out.metrics["setup_s"] = median(totals)
	out.metrics["store_heap_mb"] = liveHeapMB()
	fmt.Fprintf(report, "set-up ×%d: median %.3f s (last: generate %.3f, load %.3f, save %.3f, open %.3f, listen+probe %.3f); %d triples, %d B on disk, live heap %.1f MiB\n",
		repeats, out.metrics["setup_s"], t.generate.Seconds(), t.load.Seconds(), t.save.Seconds(), t.open.Seconds(), t.listen.Seconds(),
		t.triples, t.diskBytes, out.metrics["store_heap_mb"])

	phase = time.Now()
	qs := w.queries(e.data, seed)
	sample := qs.sample(0, seed)
	counts, err := checkServed(e, w, sample)
	if err != nil {
		return out, fmt.Errorf("answer check: %w", err)
	}
	for i := range qs.pool {
		q := &qs.pool[i]
		n, ok := counts[q.text]
		if !ok {
			if n, err = countRows(e.store, q.text); err != nil {
				return out, fmt.Errorf("count %s: %w", q.template, err)
			}
			counts[q.text] = n
		}
		q.wantRows = n
	}
	fmt.Fprintf(report, "answer check passed: %d queries against internal/ref at scale %g (%.2f s), %d three ways on the served store, %d pool entries hold verified counts (%.2f s)\n",
		refSample, verifyScale, refTook.Seconds(), len(sample), len(qs.pool), time.Since(phase).Seconds())

	warm := time.Duration(float64(seconds) * warmShare * float64(time.Second))
	span := time.Duration(seconds) * time.Second
	if !traced {
		win, err := timedWindow(w, e, qs, seed, warm, span, false)
		if err != nil {
			return out, err
		}
		out.attempted, out.failed = win.attempted, win.failed
		endToEndMetrics(win, out.metrics)
		printWindow(report, w, win, out.metrics)
		if w.cacheBytes > 0 {
			cs, err := resultCacheStats(e.srv.url)
			if err != nil {
				return out, err
			}
			fmt.Fprintf(report, "  result cache since set-up: %d hits, %d misses, %d coalesced, %d fills, %d too large, %d evictions; holds %d entries, %.1f of %.1f MiB\n",
				cs.Hits, cs.Misses, cs.Coalesced, cs.Fills, cs.Rejected, cs.Evictions, cs.Entries, float64(cs.Bytes)/(1<<20), float64(cs.Capacity)/(1<<20))
		}
		return out, nil
	}
	return out, tracedRun(w, e, qs, seed, warm, span, &out, report)
}

// timedWindow warms up, then measures one window of the workload's traffic.
func timedWindow(w workload, e *env, qs *querySet, seed int64, warm, span time.Duration, keepHeaders bool) (window, error) {
	if w.restart {
		return restartWindow(e, qs, seed, span, keepHeaders)
	}
	tr, clients := newClients(e.srv.url+"/sparql", seed)
	defer tr.CloseIdleConnections()
	if w.open {
		// A cache in service is full: before the schedule starts, every
		// pool entry is requested once, least popular first.
		fill := &querySet{pool: qs.pool}
		for i := len(qs.pool) - 1; i >= 0; i-- {
			fill.seq = append(fill.seq, int32(i))
		}
		closedLoop(clients, fill, new(atomic.Int64), 0, int64(len(fill.seq)), false)
		rng := rand.New(rand.NewSource(seed ^ 0x0be1))
		due := poissonSchedule(rng, w.rate, (warm + span).Seconds())
		return openLoop(clients, qs, due, warm, span, keepHeaders), nil
	}
	cur := new(atomic.Int64)
	closedLoop(clients, qs, cur, warm, 0, false)
	return closedLoop(clients, qs, cur, span, 0, keepHeaders), nil
}

// restartWindow is load_open's traffic: until span has passed, reopen the
// saved store, serve it, answer the cold burst over two connections, shut
// down. Elapsed time includes the reopening, so throughput falls when
// s2rdf.Open slows, and every latency is a first touch of cold caches. One
// untimed cycle goes first.
func restartWindow(e *env, qs *querySet, seed int64, span time.Duration, keepHeaders bool) (window, error) {
	total := merge(nil, 0)
	cycle := func() (window, error) {
		start := time.Now()
		st, err := s2rdf.Open(e.dir, s2rdf.Options{})
		if err != nil {
			return window{}, fmt.Errorf("reopen store: %w", err)
		}
		srv, err := startServer(st, 0)
		if err != nil {
			return window{}, err
		}
		tr, clients := newClients(srv.url+"/sparql", seed)
		win := closedLoop(clients, qs, new(atomic.Int64), 0, int64(len(qs.seq)), keepHeaders)
		tr.CloseIdleConnections()
		if err := srv.stop(); err != nil {
			return window{}, err
		}
		win.elapsed = time.Since(start)
		return win, nil
	}
	if _, err := cycle(); err != nil {
		return total, err
	}
	for total.elapsed < span {
		win, err := cycle()
		if err != nil {
			return total, err
		}
		total.absorb(win)
	}
	return total, nil
}

func endToEndMetrics(win window, m map[string]float64) {
	secs := win.elapsed.Seconds()
	m["throughput_qps"] = float64(win.attempted-win.failed) / secs
	m["rows_per_s"] = float64(win.rows) / secs
	m["latency_p50_ms"], _ = percentile(win.latMs, 0.50)
	m["ttfb_p50_ms"], _ = percentile(win.ttfbMs, 0.50)
}

func printWindow(report io.Writer, w workload, win window, m map[string]float64) {
	n := len(win.latMs)
	fmt.Fprintf(report, "timed window: %.2f s, %d attempted, %d failed (fail_share %.5f), %.1f MB/s of JSON\n",
		win.elapsed.Seconds(), win.attempted, win.failed, share(win.failed, win.attempted), float64(win.bytes)/1e6/win.elapsed.Seconds())
	for reason, k := range win.failReasons {
		fmt.Fprintf(report, "  failed ×%d: %s\n", k, reason)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(report, "  %-22s %14.4f %-4s (%s is better, bound %.0f%%)\n", d.Name, m[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99} {
		if v, ok := percentile(win.latMs, p); ok {
			fmt.Fprintf(report, "  latency p%.0f = %.4f ms (n=%d)\n", 100*p, v, n)
		} else {
			fmt.Fprintf(report, "  latency p%.0f not supported: fewer than %d of n=%d samples lie beyond it\n", 100*p, minBeyond, n)
		}
	}
	if w.open {
		lag50, _ := percentile(win.lagMs, 0.50)
		lag95, _ := percentile(win.lagMs, 0.95)
		fmt.Fprintf(report, "  open loop: latency is measured from each request's due time; generator lag p50 = %.4f ms, p95 = %.4f ms (n=%d)\n", lag50, lag95, len(win.lagMs))
	}
}

// tracedRun fills the per-layer metrics: an untraced and a traced window of
// the workload's traffic (response headers kept and read in the second; the
// difference in throughput is the tracing overhead), then a seeded sample
// of queries sent one at a time and replayed in process under spans.
func tracedRun(w workload, e *env, qs *querySet, seed int64, warm, span time.Duration, out *outcome, report io.Writer) error {
	m := out.metrics
	half := span * 2 / 5
	plain, err := timedWindow(w, e, qs, seed, warm, half, false)
	if err != nil {
		return err
	}
	cache0, err := resultCacheStats(e.srv.url)
	if err != nil {
		return err
	}
	kept, err := timedWindow(w, e, qs, seed+1, 0, half, true)
	if err != nil {
		return err
	}
	cache1, err := resultCacheStats(e.srv.url)
	if err != nil {
		return err
	}
	out.attempted, out.failed = plain.attempted+kept.attempted, plain.failed+kept.failed

	qpsPlain := float64(plain.attempted-plain.failed) / plain.elapsed.Seconds()
	qpsKept := float64(kept.attempted-kept.failed) / kept.elapsed.Seconds()
	m["trace.overhead_pct"] = 100 * (qpsPlain - qpsKept) / qpsPlain
	if v, ok := percentile(plain.latMs, 0.90); ok {
		m["client.latency_p90_ms"] = v
	}
	if v, ok := percentile(plain.latMs, 0.95); ok {
		m["client.latency_p95_ms"] = v
	}
	if v, ok := percentile(plain.latMs, 0.99); ok && len(plain.latMs) >= 1000 {
		m["client.latency_p99_ms"] = v
	}
	if w.open {
		m["client.gen_lag_p95_ms"], _ = percentile(plain.lagMs, 0.95)
	}

	hs := readHeaders(kept)
	m["sched.queue_wait_p50_us"], _ = percentile(hs.queueWaitUs, 0.50)
	m["sched.queue_wait_p95_us"], _ = percentile(hs.queueWaitUs, 0.95)
	m["sched.expensive_share"] = share(hs.expensive, hs.classed)
	m["sched.rejected_share"] = share(hs.rejected, hs.attempted)
	m["cache.result_hit_rate"] = share(hs.hits, hs.cached)
	m["cache.coalesced_share"] = share(hs.coalesced, hs.cached)
	m["cache.evictions"] = float64(cache1.Evictions - cache0.Evictions)
	m["core.plan_cache_hit_rate"] = share(hs.planHits, hs.planSeen)
	m["core.selection_cache_hit_rate"] = share(hs.selectionHits, hs.selectionSeen)

	// The sample: every template once, then seeded draws, until the sample
	// is used up or its share of the run's time is.
	tr, clients := newClients(e.srv.url+"/sparql", seed)
	defer tr.CloseIdleConnections()
	tracer := newTracer()
	rp := newReplayer(tracer, e, clients[0])
	sample := qs.sample(200, seed)
	templates := make(map[string]bool)
	for _, q := range sample {
		templates[q.template] = true
	}
	var vpScanned, extScanned int64
	deadline := time.Now().Add(span / 2)
	done := 0
	for i, q := range sample {
		if i >= len(templates) && time.Now().After(deadline) {
			break
		}
		before := rp.work.RowsScanned
		if err := rp.one(i+1, q); err != nil {
			return err
		}
		done++
		if i < 2*len(templates) {
			// The paper's claim as a count: the rows the same query reads
			// from plain VP tables against those it read from ExtVP.
			res, err := e.store.QueryMode(s2rdf.ModeVP, q.text)
			if err != nil {
				return err
			}
			vpScanned += res.Metrics.RowsScanned
			extScanned += rp.work.RowsScanned - before
		}
	}
	rep := analyse(tracer.spans)
	n := float64(max(done, 1))
	m["sparql.parse_us"] = rep.medianUs[spanParse]
	m["core.normalize_us"] = rep.medianUs[spanNormalize]
	m["core.cost_gate_us"] = rep.medianUs[spanCostGate]
	m["core.exec_us"] = rep.medianUs[spanExec]
	m["core.decode_us"] = rep.medianUs[spanDecode]
	m["s2rdf.serve_overhead_us"] = rep.overheadUs
	m["trace.child_coverage"] = rep.coverage
	if rp.terms > 0 {
		var renderNs int64
		for _, s := range tracer.spans {
			if s.Name == spanRender {
				renderNs += s.dur()
			}
		}
		m["dict.render_ns_per_term"] = float64(renderNs) / float64(rp.terms)
	}
	m["engine.rows_scanned"] = float64(rp.work.RowsScanned) / n
	m["engine.rows_pruned"] = float64(rp.work.RowsPruned) / n
	m["engine.rows_shuffled"] = float64(rp.work.RowsShuffled) / n
	m["engine.join_comparisons"] = float64(rp.work.JoinComparisons) / n
	m["engine.rows_sorted"] = float64(rp.work.RowsSorted) / n
	m["engine.bytes_spilled"] = float64(rp.work.BytesSpilled) / n
	m["engine.rows_examined_per_result"] = float64(rp.work.RowsScanned) / float64(max(rp.resultRows, 1))
	if extScanned > 0 {
		m["layout.input_reduction"] = float64(vpScanned) / float64(extScanned)
	}

	lt, err := layoutBreakdown()
	if err != nil {
		return err
	}
	t := e.times
	m["layout.generate_s"] = t.generate.Seconds()
	m["layout.encode_s"] = lt.encode.Seconds()
	m["layout.build_extvp_s"] = lt.build.Seconds()
	m["layout.save_s"] = t.save.Seconds()
	m["layout.load_s"] = t.open.Seconds()
	m["layout.build_triples_per_s"] = float64(t.triples) / t.load.Seconds()
	m["layout.extvp_tuple_ratio"] = lt.tupleRatio
	m["layout.disk_bytes_per_triple"] = float64(t.diskBytes) / float64(t.triples)

	path, err := writeTrace(outDir, out.record, tracer.spans)
	if err != nil {
		return err
	}
	printTrace(report, w, rep, done, path, m)
	return nil
}

type layoutTimes struct {
	encode, build time.Duration
	tupleRatio    float64
}

// layoutBreakdown times the two halves of s2rdf.Load on the run's data:
// dictionary-encoding into the triples table, and building VP plus the
// ExtVP semi-join reductions from it.
func layoutBreakdown() (layoutTimes, error) {
	data := watdiv.Generate(watdiv.Config{Scale: dataScale, Seed: populationSeed})
	var lt layoutTimes
	start := time.Now()
	d := dict.New()
	tt := layout.Encode(data.Triples, d)
	lt.encode = time.Since(start)
	start = time.Now()
	ds := layout.BuildEncoded(tt, d, layout.DefaultOptions())
	lt.build = time.Since(start)
	sizes := ds.Sizes()
	if sizes.Triples == 0 {
		return lt, fmt.Errorf("layout breakdown: empty dataset")
	}
	lt.tupleRatio = float64(sizes.ExtTuples) / float64(sizes.Triples)
	return lt, nil
}

func printTrace(report io.Writer, w workload, rep layerReport, sampled int, path string, m map[string]float64) {
	fmt.Fprintf(report, "traced sample: %d queries; request median %.1f us, replay median %.1f us, child spans cover %.1f%% of replay time\n",
		sampled, rep.requestMedUs, rep.replayMedUs, 100*rep.coverage)
	names := make([]string, 0, len(rep.selfShare))
	for name := range rep.selfShare {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rep.selfShare[names[i]] > rep.selfShare[names[j]] })
	fmt.Fprintln(report, "self time as a share of request time:")
	for _, name := range names {
		fmt.Fprintf(report, "  %-24s %6.1f%%   median %10.1f us\n", name, 100*rep.selfShare[name], rep.medianUs[name])
	}
	fmt.Fprintf(report, "dominant layer on %s: %s\n", w.name, rep.dominant)
	for _, d := range perLayer {
		fmt.Fprintf(report, "  %-34s %16.4f %s\n", d.Name, m[d.Name], d.Unit)
	}
	fmt.Fprintf(report, "spans written to %s\n", filepath.Join("benchmark", path))
}
