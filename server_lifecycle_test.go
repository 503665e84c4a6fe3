package s2rdf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"s2rdf/internal/rdf"
)

// slowQuery joins a dense follows-graph with itself and sorts the cubic
// result coordinator-side: ≥1s of execution on the slowStore fixture, with
// row-batch cancellation points in the scans, the join, and the sort.
const slowQuery = `SELECT ?a ?c WHERE { ?a <urn:p> ?b . ?b <urn:p> ?c } ORDER BY ?a ?c`

// slowQueryLimited is slowQuery with a LIMIT buried behind a deep OFFSET:
// a window that large disables the top-k pushdown (it only engages when
// offset+limit is a small fraction of the input), so execution still pays
// the join and the full parallel sort (~1s) while the response body stays
// tiny — tests exercising the serving lifecycle are not dominated by JSON
// output. (A bare LIMIT 3 would be answered from a 3-row heap in
// milliseconds, exactly what the pushdown is for.)
const slowQueryLimited = slowQuery + ` LIMIT 3 OFFSET 1300000`

// fastQuery touches a single VP table of the same fixture.
const fastQuery = `SELECT ?a WHERE { ?a <urn:p> <urn:n0> }`

var (
	slowOnce  sync.Once
	slowStore *Store
)

// slowFixture builds (once) a complete digraph on 110 nodes: 12100 triples
// whose slowQuery produces 110³ ≈ 1.33M ordered rows, taking well over a
// second end to end.
func slowFixture(t *testing.T) *Store {
	t.Helper()
	slowOnce.Do(func() {
		const k = 110
		p := rdf.NewIRI("urn:p")
		triples := make([]Triple, 0, k*k)
		for i := 0; i < k; i++ {
			s := rdf.NewIRI(fmt.Sprintf("urn:n%d", i))
			for j := 0; j < k; j++ {
				triples = append(triples, Triple{S: s, P: p, O: rdf.NewIRI(fmt.Sprintf("urn:n%d", j))})
			}
		}
		slowStore = Load(triples, Options{})
	})
	return slowStore
}

// TestQueryContextDeadline is the acceptance scenario: a 50ms deadline on a
// store whose full execution takes ≥1s returns context.DeadlineExceeded
// promptly instead of running the plan to completion.
func TestQueryContextDeadline(t *testing.T) {
	st := slowFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := st.QueryContext(ctx, slowQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// ~50ms deadline + one row batch of slack; generous bound for CI.
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline-bound query took %v, want ≲100ms", elapsed)
	}
}

// TestQueryContextClientCancel cancels mid-execution (not via deadline) and
// expects context.Canceled, promptly.
func TestQueryContextClientCancel(t *testing.T) {
	st := slowFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := st.QueryContext(ctx, slowQuery)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancelled query took %v, want prompt return", elapsed)
	}
}

// TestServeTimeoutParam504 checks the HTTP contract: ?timeout=50ms against
// the slow store returns 504 within ~100ms, in both duration and
// integer-milliseconds forms.
func TestServeTimeoutParam504(t *testing.T) {
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{MaxConcurrent: 4}))
	for _, timeout := range []string{"50ms", "50"} {
		start := time.Now()
		resp, err := http.Get(srv.URL + "/sparql?timeout=" + timeout +
			"&query=" + url.QueryEscape(slowQuery))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timeout=%s: status = %d, want 504", timeout, resp.StatusCode)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("timeout=%s: 504 took %v, want ≲100ms", timeout, elapsed)
		}
	}
}

// TestServeDefaultAndMaxTimeout checks the server-side deadline knobs: a
// DefaultTimeout applies to requests with no timeout parameter, and
// MaxTimeout caps a client asking for more.
func TestServeDefaultAndMaxTimeout(t *testing.T) {
	st := slowFixture(t)
	t.Run("default", func(t *testing.T) {
		srv := startServer(t, NewHandler(st, ServerOptions{DefaultTimeout: 50 * time.Millisecond}))
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(slowQuery))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", resp.StatusCode)
		}
	})
	t.Run("max-caps-client", func(t *testing.T) {
		srv := startServer(t, NewHandler(st, ServerOptions{MaxTimeout: 50 * time.Millisecond}))
		resp, err := http.Get(srv.URL + "/sparql?timeout=1h&query=" + url.QueryEscape(slowQuery))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", resp.StatusCode)
		}
	})
	t.Run("bad-timeout", func(t *testing.T) {
		srv := startServer(t, NewHandler(st, ServerOptions{}))
		for _, v := range []string{"bogus", "-5ms", "0", "18446744073710"} {
			resp, err := http.Get(srv.URL + "/sparql?timeout=" + v +
				"&query=" + url.QueryEscape(fastQuery))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("timeout=%q: status = %d, want 400", v, resp.StatusCode)
			}
		}
	})
}

// TestServeTimeoutFreesWorkerSlots floods a 2-slot pool with queries that
// all hit their deadline, then checks a normal query still gets a slot:
// timed-out queries must release their worker promptly (no leaked slots).
// Run under -race in CI.
func TestServeTimeoutFreesWorkerSlots(t *testing.T) {
	srv := startServer(t, NewHandler(slowFixture(t), ServerOptions{MaxConcurrent: 2}))

	const burst = 8
	var wg sync.WaitGroup
	statuses := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/sparql?timeout=40ms&query=" + url.QueryEscape(slowQuery))
			if err != nil {
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, s := range statuses {
		if s != http.StatusGatewayTimeout {
			t.Errorf("burst request %d: status = %d, want 504", i, s)
		}
	}

	// Every slot must be free again: a cheap query succeeds quickly.
	start := time.Now()
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(fastQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst query status = %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("post-burst query took %v: worker slots leaked?", elapsed)
	}
}

// multiStoreFixture registers two one-triple stores plus a default.
func multiStoreFixture(t *testing.T) *httptest.Server {
	t.Helper()
	mk := func(o string) *Store {
		return Load([]Triple{{
			S: rdf.NewIRI("urn:s"), P: rdf.NewIRI("urn:p"), O: rdf.NewIRI(o),
		}}, Options{})
	}
	h, err := NewMux(map[string]*Store{
		"default": mk("urn:from-default"),
		"tenant1": mk("urn:from-tenant1"),
		"tenant2": mk("urn:from-tenant2"),
	}, "default", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, h)
	return srv
}

// TestMultiStoreRouting drives /sparql and /sparql/{store} and checks each
// request reaches its own store.
func TestMultiStoreRouting(t *testing.T) {
	srv := multiStoreFixture(t)
	q := url.QueryEscape(`SELECT ?o WHERE { <urn:s> <urn:p> ?o }`)
	for path, want := range map[string]string{
		"/sparql":         "urn:from-default",
		"/sparql/default": "urn:from-default",
		"/sparql/tenant1": "urn:from-tenant1",
		"/sparql/tenant2": "urn:from-tenant2",
	} {
		resp, err := http.Get(srv.URL + path + "?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		doc := decodeResults(t, resp)
		if n := len(doc.Results.Bindings); n != 1 {
			t.Fatalf("%s: %d bindings", path, n)
		}
		if got := doc.Results.Bindings[0]["o"]["value"]; got != want {
			t.Errorf("%s: o = %q, want %q", path, got, want)
		}
	}
}

// TestMultiStoreUnknown404 checks unknown stores fail with 404, POST
// routing works per store, and /healthz reports every store.
func TestMultiStoreUnknown404(t *testing.T) {
	srv := multiStoreFixture(t)
	resp, err := http.Get(srv.URL + "/sparql/nope?query=" + url.QueryEscape(fastQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown store: status = %d, want 404", resp.StatusCode)
	}

	resp, err = http.PostForm(srv.URL+"/sparql/tenant1",
		url.Values{"query": {`SELECT ?o WHERE { <urn:s> <urn:p> ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeResults(t, resp)
	if got := doc.Results.Bindings[0]["o"]["value"]; got != "urn:from-tenant1" {
		t.Errorf("POST routing: o = %q", got)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Stores map[string]struct {
			Triples int  `json:"triples"`
			Default bool `json:"default"`
		} `json:"stores"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Stores) != 3 || !h.Stores["default"].Default {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestNewMuxValidation covers the config error paths.
func TestNewMuxValidation(t *testing.T) {
	if _, err := NewMux(nil, "", ServerOptions{}); err == nil {
		t.Error("empty store set accepted")
	}
	st := Load(exampleTriples(), Options{})
	if _, err := NewMux(map[string]*Store{"a": st}, "missing", ServerOptions{}); err == nil {
		t.Error("unregistered default accepted")
	}
	// Names that /sparql/{store} could never route must be rejected at
	// registration, not discovered as silent 404s in production.
	for _, bad := range []string{"", "eu/west", "a?b", "x#y"} {
		if _, err := NewMux(map[string]*Store{bad: st}, bad, ServerOptions{}); err == nil {
			t.Errorf("unroutable store name %q accepted", bad)
		}
	}
	// Single store with no explicit default: that store becomes the default.
	h, err := NewMux(map[string]*Store{"only": st}, "", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, h)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("implicit default: status = %d", resp.StatusCode)
	}
}

// TestOversizeQuery413 checks every query-delivery form answers 413 when
// the query exceeds MaxQueryLen.
func TestOversizeQuery413(t *testing.T) {
	st := Load(exampleTriples(), Options{})
	srv := startServer(t, NewHandler(st, ServerOptions{MaxQueryLen: 64}))
	big := "SELECT ?s WHERE { ?s <urn:p> <urn:o> } #" + strings.Repeat("x", 128)

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("GET oversize: status = %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/sparql", "application/sparql-query", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST raw oversize: status = %d, want 413", resp.StatusCode)
	}

	resp, err = http.PostForm(srv.URL+"/sparql", url.Values{"query": {big}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST form oversize: status = %d, want 413", resp.StatusCode)
	}
}

// TestGracefulDrain starts ServeListener, parks a request in flight, stops
// the server, and checks (a) the in-flight request completes, (b) the
// server exits cleanly, and (c) new connections are refused.
func TestGracefulDrain(t *testing.T) {
	// A medium graph (60³ = 216k sorted rows): slow enough that the query
	// is still executing when shutdown begins, fast enough to finish well
	// inside the drain budget even under -race.
	const k = 60
	p := rdf.NewIRI("urn:p")
	triples := make([]Triple, 0, k*k)
	for i := 0; i < k; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:n%d", i))
		for j := 0; j < k; j++ {
			triples = append(triples, Triple{S: s, P: p, O: rdf.NewIRI(fmt.Sprintf("urn:n%d", j))})
		}
	}
	st := Load(triples, Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + ln.Addr().String()

	// Signal the moment the query request reaches the handler, so shutdown
	// deterministically begins while it is in flight.
	started := make(chan struct{})
	var once sync.Once
	inner := NewHandler(st, ServerOptions{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		inner.ServeHTTP(w, r)
	})

	ctx, stop := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ServeListener(ctx, ln, h, time.Minute)
	}()

	// Park a query in flight (no deadline).
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(baseURL + "/sparql?query=" + url.QueryEscape(slowQueryLimited))
		if err != nil {
			t.Logf("in-flight request error: %v", err)
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	<-started
	time.Sleep(20 * time.Millisecond) // let the handler reach the engine
	stop()                            // SIGTERM equivalent: begin drain

	select {
	case status := <-reqDone:
		if status != http.StatusOK {
			t.Errorf("in-flight request during drain: status = %d, want 200", status)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("ServeListener returned %v after drain, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after drain")
	}

	// The listener is gone: new requests must fail to connect.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting connections after drain")
	}
}
