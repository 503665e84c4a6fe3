package s2rdf

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"s2rdf/internal/fault"
	"s2rdf/internal/sched"
)

type resultsDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results *struct {
		Bindings []map[string]map[string]string `json:"bindings"`
	} `json:"results"`
}

func serverFixture(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	st := Load(exampleTriples(), Options{BuildPropertyTable: true})
	return st, startServer(t, NewHandler(st, ServerOptions{MaxConcurrent: 4}))
}

// restGoroutines maps each startServer server to the process's goroutine
// count right after it started listening.
var restGoroutines sync.Map

// startServer serves h on a loopback listener for the length of the test
// and registers, ahead of the listener's Close, the assertion that the
// server is at rest when the test ends.
func startServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	restGoroutines.Store(srv, runtime.NumGoroutine())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { assertQuiescent(t, srv) })
	return srv
}

// assertQuiescent waits (handler defers run after the response body is on
// the wire, so a freshly-finished request may still hold its slot for an
// instant) until every store srv serves is at rest — no query running or
// waiting in either scheduler lane, no response streaming — and, once the
// clients' idle connections are closed,
// the goroutine count is back to what it was when srv started. Anything
// still held after 10s is a leak and fails the test.
func assertQuiescent(t *testing.T, srv *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := busyStores(t, srv)
		if busy == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came to rest: %s", busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
	base, ok := restGoroutines.Load(srv)
	if !ok {
		t.Fatal("assertQuiescent on a server not started by startServer")
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	srv.Client().Transport.(*http.Transport).CloseIdleConnections()
	for runtime.NumGoroutine() > base.(int) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines at rest, %d when the server started:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// healthzReport is the part of the /healthz document the tests read.
type healthzReport struct {
	Status string `json:"status"`
	Stores map[string]struct {
		Sched          sched.Stats          `json:"sched"`
		Streaming      int64                `json:"streaming"`
		SpilledBytes   int64                `json:"spilled_bytes"`
		Health         fault.HealthSnapshot `json:"health"`
		ResultCache    cacheStats           `json:"result_cache"` // zero when caching is off
		PlanCache      CacheCounters        `json:"plan_cache"`
		SelectionCache CacheCounters        `json:"selection_cache"`
	} `json:"stores"`
}

func readHealthz(t *testing.T, srv *httptest.Server) healthzReport {
	t.Helper()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc healthzReport
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// busyStores names every healthz gauge that is not at rest ("" when all are).
func busyStores(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	var busy []string
	for name, s := range readHealthz(t, srv).Stores {
		for gauge, n := range map[string]int{
			"cheap.running":     s.Sched.Cheap.Running,
			"cheap.waiting":     s.Sched.Cheap.Waiting,
			"expensive.running": s.Sched.Expensive.Running,
			"expensive.waiting": s.Sched.Expensive.Waiting,
			"streaming":         int(s.Streaming),
		} {
			if n != 0 {
				busy = append(busy, fmt.Sprintf("%s %s=%d", name, gauge, n))
			}
		}
	}
	return strings.Join(busy, ", ")
}

func decodeResults(t *testing.T, resp *http.Response) resultsDoc {
	t.Helper()
	defer resp.Body.Close()
	var doc resultsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return doc
}

const followsQuery = `SELECT ?who WHERE { ?who <urn:follows> <urn:B> }`

func TestServeGET(t *testing.T) {
	_, srv := serverFixture(t)
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/sparql-results+json" {
		t.Fatalf("content type = %q", got)
	}
	if resp.Header.Get("X-S2RDF-Rows-Scanned") == "" {
		t.Fatal("missing X-S2RDF-Rows-Scanned header")
	}
	if got := resp.Header.Get("X-S2RDF-Mode"); got != "ExtVP" {
		t.Fatalf("mode header = %q", got)
	}
	doc := decodeResults(t, resp)
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "who" {
		t.Fatalf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
	b := doc.Results.Bindings[0]["who"]
	if b["type"] != "uri" || b["value"] != "urn:A" {
		t.Fatalf("binding = %v", b)
	}
}

func TestServePOSTForm(t *testing.T) {
	_, srv := serverFixture(t)
	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {followsQuery}})
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeResults(t, resp)
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
}

func TestServePOSTSparqlQueryBody(t *testing.T) {
	_, srv := serverFixture(t)
	resp, err := http.Post(srv.URL+"/sparql", "application/sparql-query",
		strings.NewReader(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeResults(t, resp)
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
}

func TestServeAsk(t *testing.T) {
	_, srv := serverFixture(t)
	q := `ASK { <urn:A> <urn:follows> <urn:B> }`
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-S2RDF-Rows-Scanned"); got == "" {
		t.Error("ASK response carries no metric headers")
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The ASK document is pinned byte for byte: it is what the retired
	// encoding/json writer produced.
	if want := "{\"head\":{},\"boolean\":true}\n"; string(body) != want {
		t.Fatalf("ASK body = %q, want %q", body, want)
	}
}

// TestServeZeroVariableSelect: a SELECT whose pattern binds no variable is
// still a SELECT — an (empty) vars array and a bindings array with one empty
// solution when the pattern matches, none when it does not. It must not be
// mistaken for an ASK because it has neither variables nor rows.
func TestServeZeroVariableSelect(t *testing.T) {
	_, srv := serverFixture(t)
	for q, want := range map[string]string{
		`SELECT * WHERE { <urn:A> <urn:follows> <urn:B> }`:    "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n{}\n]}}\n",
		`SELECT * WHERE { <urn:A> <urn:follows> <urn:NOPE> }`: "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n]}}\n",
	} {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Errorf("%s: status %d, body %q, want %q", q, resp.StatusCode, body, want)
		}
	}
}

// TestServeMethodNotAllowed: anything but GET and POST is 405 and names the
// methods that are allowed.
func TestServeMethodNotAllowed(t *testing.T) {
	_, srv := serverFixture(t)
	for _, method := range []string{http.MethodHead, http.MethodPut} {
		req, err := http.NewRequest(method, srv.URL+"/sparql?query="+url.QueryEscape(followsQuery), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s: status = %d, want 405", method, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != "GET, POST" {
			t.Errorf("%s: Allow = %q, want \"GET, POST\"", method, got)
		}
	}
}

func TestServeModeOverride(t *testing.T) {
	_, srv := serverFixture(t)
	for _, mode := range []string{"VP", "TT", "PT"} {
		resp, err := http.Get(srv.URL + "/sparql?mode=" + mode +
			"&query=" + url.QueryEscape(followsQuery))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status = %d", mode, resp.StatusCode)
		}
		if got := resp.Header.Get("X-S2RDF-Mode"); got != mode {
			t.Fatalf("mode header = %q, want %s", got, mode)
		}
		doc := decodeResults(t, resp)
		if len(doc.Results.Bindings) != 1 {
			t.Fatalf("mode %s: bindings = %v", mode, doc.Results.Bindings)
		}
	}
}

func TestServePOSTFormModeOverride(t *testing.T) {
	_, srv := serverFixture(t)
	resp, err := http.PostForm(srv.URL+"/sparql",
		url.Values{"query": {followsQuery}, "mode": {"TT"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-S2RDF-Mode"); got != "TT" {
		t.Fatalf("mode header = %q, want TT", got)
	}
	doc := decodeResults(t, resp)
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %v", doc.Results.Bindings)
	}
}

func TestServeErrors(t *testing.T) {
	_, srv := serverFixture(t)
	for _, tc := range []struct {
		url    string
		status int
	}{
		{"/sparql", http.StatusBadRequest},                         // no query
		{"/sparql?query=SELEKT", http.StatusBadRequest},            // parse error
		{"/sparql?mode=bogus&query=SELECT", http.StatusBadRequest}, // bad mode
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.url, resp.StatusCode, tc.status)
		}
	}
}

func TestServePlanCacheHeader(t *testing.T) {
	_, srv := serverFixture(t)
	get := func() string {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(followsQuery))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-S2RDF-Plan-Cache")
	}
	if got := get(); got != "miss" {
		t.Fatalf("first request plan cache = %q, want miss", got)
	}
	if got := get(); got != "hit" {
		t.Fatalf("second request plan cache = %q, want hit", got)
	}
	// A differently-formatted copy of the same query shares the entry.
	reformatted := "SELECT  ?who\nWHERE {\n  ?who <urn:follows> <urn:B>\n}"
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(reformatted))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-S2RDF-Plan-Cache"); got != "hit" {
		t.Fatalf("reformatted query plan cache = %q, want hit", got)
	}
}

// TestServeConcurrent hammers the endpoint from many goroutines and checks
// every response is exact — results and per-query metrics alike.
func TestServeConcurrent(t *testing.T) {
	_, srv := serverFixture(t)

	// Establish expected metrics per mode with one warm-up round.
	queries := map[string]string{
		"ExtVP": followsQuery,
		"VP":    followsQuery,
		"TT":    followsQuery,
		"PT":    followsQuery,
	}
	expect := map[string]string{}
	for mode := range queries {
		resp, err := http.Get(srv.URL + "/sparql?mode=" + mode +
			"&query=" + url.QueryEscape(queries[mode]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		expect[mode] = resp.Header.Get("X-S2RDF-Rows-Scanned")
	}

	const workers, iters = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	modes := []string{"ExtVP", "VP", "TT", "PT"}
	for w := 0; w < workers; w++ {
		mode := modes[w%len(modes)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(srv.URL + "/sparql?mode=" + mode +
					"&query=" + url.QueryEscape(queries[mode]))
				if err != nil {
					errs <- err
					return
				}
				scanned := resp.Header.Get("X-S2RDF-Rows-Scanned")
				doc := decodeResults(t, resp)
				if scanned != expect[mode] {
					errs <- fmt.Errorf("mode %s: scanned %s, want %s", mode, scanned, expect[mode])
					return
				}
				if len(doc.Results.Bindings) != 1 {
					errs <- fmt.Errorf("mode %s: %d bindings", mode, len(doc.Results.Bindings))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServeHealthz(t *testing.T) {
	st, srv := serverFixture(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Triples int    `json:"triples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Triples != st.NumTriples() {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServePlanningHeaders checks the planner's explain surface over HTTP:
// join order, per-join strategies and selection-cache status travel as
// response headers, and a repeated query reports both caches hitting.
func TestServePlanningHeaders(t *testing.T) {
	_, srv := serverFixture(t)
	q := `SELECT * WHERE { ?x <urn:likes> ?w . ?x <urn:follows> ?y }`
	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp
	}

	first := get()
	if got := first.Header.Get("X-S2RDF-Selection-Cache"); got != "miss" {
		t.Errorf("first selection-cache header = %q, want miss", got)
	}
	order := first.Header.Get("X-S2RDF-Join-Order")
	if len(strings.Split(order, ",")) != 2 {
		t.Errorf("join-order header = %q, want two pattern indices", order)
	}
	strategies := first.Header.Get("X-S2RDF-Join-Strategies")
	if strategies == "" {
		t.Error("missing X-S2RDF-Join-Strategies header")
	}
	for _, s := range strings.Split(strategies, ",") {
		if s != "shuffle" && s != "broadcast" && s != "cross" && s != "star" {
			t.Errorf("unknown strategy %q in header %q", s, strategies)
		}
	}
	// Per-join shuffled-row counts ride along, one integer per join step.
	shuffled := first.Header.Get("X-S2RDF-Join-Shuffled")
	if got := strings.Split(shuffled, ","); len(got) != len(strings.Split(strategies, ",")) {
		t.Errorf("join-shuffled header %q does not match strategies %q", shuffled, strategies)
	} else {
		for _, s := range got {
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				t.Errorf("join-shuffled entry %q is not an integer", s)
			}
		}
	}

	second := get()
	if got := second.Header.Get("X-S2RDF-Selection-Cache"); got != "hit" {
		t.Errorf("second selection-cache header = %q, want hit", got)
	}
	if got := second.Header.Get("X-S2RDF-Plan-Cache"); got != "hit" {
		t.Errorf("second plan-cache header = %q, want hit", got)
	}
	if got := second.Header.Get("X-S2RDF-Join-Order"); got != order {
		t.Errorf("cached join order %q differs from first %q", got, order)
	}
}
