package s2rdf

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2rdf/internal/sched"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// End-to-end tests of the admission scheduler through the HTTP surface:
// starvation bounds under analytics load, backpressure (429 + Retry-After),
// slot release on client disconnect, and a randomized storm whose gauges
// must drain to zero. The in-process scheduler mechanics are covered by
// internal/sched; these tests pin the serving behavior.

// schedStats fetches /healthz and returns the named store's scheduler
// snapshot.
func schedStats(t *testing.T, ts *httptest.Server, store string) sched.Stats {
	t.Helper()
	info, ok := readHealthz(t, ts).Stores[store]
	if !ok {
		t.Fatalf("healthz has no store %q", store)
	}
	return info.Sched
}

// waitForStats polls healthz until cond holds or the deadline passes, then
// returns the last snapshot (callers assert on it, so a timeout surfaces as
// a concrete gauge mismatch, not just "timed out").
func waitForStats(t *testing.T, ts *httptest.Server, d time.Duration, cond func(sched.Stats) bool) sched.Stats {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		st := schedStats(t, ts, DefaultStoreName)
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func queryURL(ts *httptest.Server, q string, params ...string) string {
	v := url.Values{"query": {q}}
	for i := 0; i+1 < len(params); i += 2 {
		v.Set(params[i], params[i+1])
	}
	return ts.URL + "/sparql?" + v.Encode()
}

// TestSchedStarvationBound saturates every worker slot with long analytics
// queries and checks that concurrent point lookups stay within a bounded
// multiple of their uncontended latency. Under plain FIFO admission every
// lookup would sit behind queued multi-second joins (≥1s each); the time
// slices and virtual-time order must let a lookup take the next slot a
// join yields.
func TestSchedStarvationBound(t *testing.T) {
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{MaxConcurrent: 4}))

	getOK := func(u string) time.Duration {
		t.Helper()
		begin := time.Now()
		resp, err := srv.Client().Get(u)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		return time.Since(begin)
	}

	// Uncontended baseline: the fastest of a few solo runs (caches warm
	// after the first, matching the steady state the contended runs see).
	fastURL := queryURL(srv, fastQuery)
	solo := getOK(fastURL)
	for i := 0; i < 4; i++ {
		if d := getOK(fastURL); d < solo {
			solo = d
		}
	}

	// Solo cost of one analytics query on this machine (≥1s by
	// construction, more under -race). FIFO starvation would put a lookup
	// behind at least one full such query, so half of it is the
	// self-calibrating ceiling the contended lookups must stay under.
	heavySolo := getOK(queryURL(srv, slowQueryLimited, "timeout", "30s"))

	// Saturate: 8 clients loop a >1s analytics join (bounded per iteration
	// by the server-side timeout so shutdown is prompt). 8 > slots, so FIFO
	// sharing would stall lookups.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	heavyURL := queryURL(srv, slowQueryLimited, "timeout", "2s")
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(heavyURL)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	// Wait until the slots are actually saturated before measuring.
	waitForStats(t, srv, 5*time.Second, func(s sched.Stats) bool {
		return s.Running == s.Slots && s.Waiting > 0
	})

	lat := make([]time.Duration, 20)
	for i := range lat {
		lat[i] = getOK(fastURL)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p95 := lat[18] // 19th of 20

	// Bound: 5× the uncontended latency, floored at half the cost of a
	// single analytics query. The floor absorbs CPU-time contention from
	// the saturated cores (the lookups share the machine with 8 running
	// joins, and -race amplifies that) while staying strictly below the
	// starvation signature: FIFO admission would park every lookup behind
	// at least one full heavySolo-sized join.
	bound := 5 * solo
	if floor := heavySolo / 2; bound < floor {
		bound = floor
	}
	if p95 > bound {
		t.Errorf("cheap-lookup p95 under analytics load = %v, want ≤ %v (solo %v, analytics solo %v)",
			p95, bound, solo, heavySolo)
	}
}

// TestSchedBackpressure fills the store's one slot and its queue, then
// checks the overflow request is rejected with 429 and a parseable
// Retry-After, and that a queued client that disconnects releases its queue
// slot without the query ever executing.
func TestSchedBackpressure(t *testing.T) {
	// A long slice keeps the running query from yielding its slot during
	// the test: a yield would convert the queued request into a re-enqueued
	// runner and drain the admission queue, which is exactly the fairness
	// behavior the starvation test wants — but here the queue must stay
	// full so the overflow path is deterministic.
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{
		MaxConcurrent: 1,
		QueueDepth:    1,
		Slice:         time.Hour,
	}))

	heavyURL := queryURL(srv, slowQueryLimited, "timeout", "30s")
	launch := func() (cancel context.CancelFunc, done chan struct{}) {
		ctx, cancelFn := context.WithCancel(context.Background())
		ch := make(chan struct{})
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, heavyURL, nil)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		go func() {
			defer close(ch)
			resp, err := srv.Client().Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		return cancelFn, ch
	}

	// H1 occupies the single slot.
	cancel1, done1 := launch()
	defer cancel1()
	if s := waitForStats(t, srv, 5*time.Second, func(s sched.Stats) bool {
		return s.Running == 1
	}); s.Running != 1 {
		t.Fatalf("Running = %d, want 1", s.Running)
	}

	// H2 fills the queue (depth 1).
	cancel2, done2 := launch()
	defer cancel2()
	if s := waitForStats(t, srv, 5*time.Second, func(s sched.Stats) bool {
		return s.Queued == 1
	}); s.Queued != 1 {
		t.Fatalf("Queued = %d, want 1", s.Queued)
	}

	// H3 overflows: 429 with a parseable Retry-After in [1s, 60s].
	resp, err := srv.Client().Get(heavyURL)
	if err != nil {
		t.Fatalf("overflow GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429 (body %q)", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer second count: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %ds, want within [1, 60]", secs)
	}
	if got := resp.Header.Get("X-S2RDF-Query-Class"); got != "expensive" {
		t.Errorf("X-S2RDF-Query-Class = %q, want expensive", got)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("429 body %q does not mention the full queue", body)
	}

	// H2's client disconnects while queued: its slot frees without the
	// query executing — started stays 1 (H1 only), abandoned becomes 1.
	cancel2()
	<-done2
	s := waitForStats(t, srv, 5*time.Second, func(s sched.Stats) bool {
		return s.Queued == 0 && s.Abandoned == 1
	})
	if s.Queued != 0 || s.Abandoned != 1 || s.Started != 1 {
		t.Fatalf("after queued disconnect: queued=%d abandoned=%d started=%d, want 0/1/1",
			s.Queued, s.Abandoned, s.Started)
	}

	// H1 disconnects mid-execution: every gauge drains to zero.
	cancel1()
	<-done1
	assertQuiescent(t, srv)
	s = schedStats(t, srv, DefaultStoreName)
	if s.Admitted != s.Started+s.Abandoned {
		t.Errorf("admitted %d != started %d + abandoned %d",
			s.Admitted, s.Started, s.Abandoned)
	}
	if s.Started != s.Completed {
		t.Errorf("started %d != completed %d", s.Started, s.Completed)
	}
}

// TestSchedRandomizedServer storms the server with mixed cheap and
// expensive queries under random server-side timeouts and client-side
// cancellations, then checks that every request terminated with exactly one
// well-defined outcome and that the scheduler's gauges drained to zero with
// consistent counters.
func TestSchedRandomizedServer(t *testing.T) {
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{
		MaxConcurrent: 4,
		QueueDepth:    2, // small queue so the storm actually trips 429s
	}))

	const (
		clients       = 12
		reqsPerClient = 12
	)
	var ok200, rejected429, timeout5xx, clientErr atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < reqsPerClient; i++ {
				q := fastQuery
				if rng.Intn(2) == 0 {
					q = slowQueryLimited
				}
				timeout := time.Duration(10+rng.Intn(70)) * time.Millisecond
				u := queryURL(srv, q, "timeout", timeout.String())
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					// A third of the clients hang up mid-request.
					after := time.Duration(rng.Intn(20)) * time.Millisecond
					time.AfterFunc(after, cancel)
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
				if err != nil {
					t.Errorf("request: %v", err)
					cancel()
					continue
				}
				resp, err := srv.Client().Do(req)
				switch {
				case err != nil:
					clientErr.Add(1)
				default:
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						ok200.Add(1)
					case http.StatusTooManyRequests:
						rejected429.Add(1)
					case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
						timeout5xx.Add(1)
					default:
						t.Errorf("unexpected status %d for %q", resp.StatusCode, q)
					}
				}
				cancel()
			}
		}(int64(c) + 1)
	}
	wg.Wait()

	total := ok200.Load() + rejected429.Load() + timeout5xx.Load() + clientErr.Load()
	if want := int64(clients * reqsPerClient); total != want {
		t.Fatalf("outcomes %d != requests %d (200=%d 429=%d 5xx=%d clientErr=%d)",
			total, want, ok200.Load(), rejected429.Load(), timeout5xx.Load(), clientErr.Load())
	}
	t.Logf("storm outcomes: 200=%d 429=%d timeout=%d clientErr=%d",
		ok200.Load(), rejected429.Load(), timeout5xx.Load(), clientErr.Load())

	// Quiescence: all gauges back to zero, counters consistent.
	assertQuiescent(t, srv)
	s := schedStats(t, srv, DefaultStoreName)
	if s.Admitted != s.Started+s.Abandoned {
		t.Errorf("admitted %d != started %d + abandoned %d", s.Admitted, s.Started, s.Abandoned)
	}
	if s.Started != s.Completed {
		t.Errorf("started %d != completed %d", s.Started, s.Completed)
	}
	// Every 429 a client read was a scheduler rejection; the reverse can
	// undercount because a client that hung up mid-request never reads the
	// 429 the server wrote for it.
	if s.Rejected < rejected429.Load() {
		t.Errorf("rejected %d < observed 429s %d", s.Rejected, rejected429.Load())
	}
}

// TestSchedCostGateWatDiv pins the cost gate's classification on WatDiv
// query shapes at the default threshold: a bound point lookup is cheap, the
// unselective complex star C3 is expensive, and the ExtVP statistics place
// the F5 snowflake on the configurable boundary — expensive under a strict
// threshold, cheap under the default once semi-join reductions shrink its
// inputs (the paper's Sec. 3 effect, visible pre-execution).
func TestSchedCostGateWatDiv(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 0.3, Seed: 42})
	st := Load(data.Triples, Options{})
	eng := st.Engine(ModeExtVP)

	classify := func(q string, threshold int) (sched.Class, int) {
		t.Helper()
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		cost := eng.PlanQuery(parsed).Cost()
		return sched.Classify(cost.Cost(), threshold), cost.Cost()
	}

	// A fully bound point lookup (subject and predicate fixed) must always
	// land in the cheap lane.
	var point string
	for _, tr := range data.Triples {
		if strings.Contains(string(tr.P), "follows") {
			point = fmt.Sprintf("SELECT ?v0 WHERE { %s %s ?v0 }", tr.S, tr.P)
			break
		}
	}
	if point == "" {
		t.Fatal("no follows triple in generated data")
	}
	if class, cost := classify(point, 0); class != sched.Cheap {
		t.Errorf("point lookup classified %v (cost %d), want cheap", class, cost)
	}

	templates := make(map[string]watdiv.Template)
	for _, tpl := range watdiv.BasicTemplates() {
		templates[tpl.Name] = tpl
	}
	rng := rand.New(rand.NewSource(7))

	// C3 — six unbound patterns star-joined on ?v0 over the user entities —
	// must classify expensive at the default threshold: its scan estimate
	// is thousands of rows at every seed.
	for i := 0; i < 3; i++ {
		q := templates["C3"].Instantiate(data, rng)
		if class, cost := classify(q, 0); class != sched.Expensive {
			t.Errorf("C3[%d] classified %v (cost %d), want expensive", i, class, cost)
		}
	}

	// F5 — a retailer-bound snowflake — sits between the lanes: ExtVP
	// semi-join statistics put its estimate in the low hundreds, so a
	// strict threshold (100) classifies it expensive while the default
	// (1000) admits it to the cheap lane. This pins both the boundary
	// semantics of -cheap-threshold and the estimate magnitude.
	for i := 0; i < 3; i++ {
		q := templates["F5"].Instantiate(data, rng)
		strict, cost := classify(q, 100)
		if strict != sched.Expensive {
			t.Errorf("F5[%d] at threshold 100 classified %v (cost %d), want expensive", i, strict, cost)
		}
		if cost <= 100 || cost > sched.DefaultCheapThreshold {
			t.Errorf("F5[%d] cost %d, want within (100, %d]", i, cost, sched.DefaultCheapThreshold)
		}
		def, _ := classify(q, 0)
		if def != sched.Cheap {
			t.Errorf("F5[%d] at default threshold classified %v (cost %d), want cheap", i, def, cost)
		}
	}

	// F1 — the tag/genre snowflake — is provably empty at this scale
	// (sorg:trailer is a rare predicate and the ExtVP reduction with the
	// category-bound rdf:type pattern has no rows), so the statistics
	// prove a zero-cost answer: the gate must not tax pattern count alone.
	q := templates["F1"].Instantiate(data, rng)
	if class, cost := classify(q, 0); class != sched.Cheap || cost != 0 {
		t.Errorf("F1 classified %v with cost %d, want cheap with cost 0 (statistics prove it empty)", class, cost)
	}
}

// TestSchedHeadersSurfaceQueueState checks the scheduling headers a
// successful response carries: class, cost estimate, queue wait and queue
// depth.
func TestSchedHeadersSurfaceQueueState(t *testing.T) {
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{MaxConcurrent: 2}))

	resp, err := srv.Client().Get(queryURL(srv, fastQuery))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-S2RDF-Query-Class"); got != "cheap" {
		t.Errorf("X-S2RDF-Query-Class = %q, want cheap", got)
	}
	cost, err := strconv.Atoi(resp.Header.Get("X-S2RDF-Cost-Estimate"))
	if err != nil || cost <= 0 {
		t.Errorf("X-S2RDF-Cost-Estimate = %q, want a positive integer", resp.Header.Get("X-S2RDF-Cost-Estimate"))
	}
	if _, err := time.ParseDuration(resp.Header.Get("X-S2RDF-Queue-Wait")); err != nil {
		t.Errorf("X-S2RDF-Queue-Wait = %q, want a duration: %v", resp.Header.Get("X-S2RDF-Queue-Wait"), err)
	}
	if got := resp.Header.Get("X-S2RDF-Sched-Yields"); got != "0" {
		t.Errorf("X-S2RDF-Sched-Yields = %q, want 0 for a cheap query", got)
	}
	if got := resp.Header.Get("X-S2RDF-Queue-Depth"); got != "0" {
		t.Errorf("X-S2RDF-Queue-Depth = %q, want 0 on an idle store", got)
	}

	// The class header is decided pre-execution, so it rides on timeout
	// responses too — a short server-side timeout keeps this fast without
	// weakening the assertion.
	resp, err = srv.Client().Get(queryURL(srv, slowQueryLimited, "timeout", "150ms"))
	if err != nil {
		t.Fatalf("GET slow: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow status = %d, want 200 or 504", resp.StatusCode)
	}
	if got := resp.Header.Get("X-S2RDF-Query-Class"); got != "expensive" {
		t.Errorf("slow X-S2RDF-Query-Class = %q, want expensive", got)
	}
}
