package s2rdf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"s2rdf/internal/engine"
	"s2rdf/internal/rdf"
	"s2rdf/internal/watdiv"
)

// cacheStats reads one store's result_cache record (plus the
// selection-cache counters) out of /healthz.
type cacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Fills   int64 `json:"fills"`
	Entries int   `json:"entries"`
}

func healthzCaches(t *testing.T, srv *httptest.Server) (rc cacheStats, sel CacheCounters) {
	t.Helper()
	s := readHealthz(t, srv).Stores[DefaultStoreName]
	return s.ResultCache, s.SelectionCache
}

// getCached issues one query and returns the body plus the X-S2RDF-Cache
// header ("hit", "miss", or "" when caching is disabled).
func getCached(t *testing.T, srv *httptest.Server, query string) (body []byte, lane string) {
	t.Helper()
	body, lane, err := fetchCached(srv, query)
	if err != nil {
		t.Fatal(err)
	}
	return body, lane
}

// fetchCached is getCached for goroutines other than the test's own.
func fetchCached(srv *httptest.Server, query string) (body []byte, lane string, err error) {
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status = %d for %q", resp.StatusCode, query)
	}
	body, err = io.ReadAll(resp.Body)
	return body, resp.Header.Get("X-S2RDF-Cache"), err
}

// rankedTriples builds n subjects where every subject has an urn:score,
// every second an urn:rank and every fourth an urn:tag, so ExtVP over any
// predicate pair finds a selective reduction (SF < 1).
func rankedTriples(n int) []Triple {
	score := rdf.NewIRI("urn:score")
	rank := rdf.NewIRI("urn:rank")
	tag := rdf.NewIRI("urn:tag")
	var triples []Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("urn:P%d", i))
		triples = append(triples, Triple{S: s, P: score, O: rdf.NewInteger(int64(i % (n / 4)))})
		if i%2 == 0 {
			triples = append(triples, Triple{S: s, P: rank, O: rdf.NewInteger(int64(i))})
		}
		if i%4 == 0 {
			triples = append(triples, Triple{S: s, P: tag, O: rdf.NewInteger(int64(i))})
		}
	}
	return triples
}

// TestServerLazyCachesFirstResult: the first execution of a join that
// selects ExtVP reductions is cached like any other, and a later join that
// selects different ones leaves it valid. Every body equals an uncached
// server's. (The name dates from the deferred ExtVP build, whose first
// executions also built rows; every reduction is now built at load.)
func TestServerLazyCachesFirstResult(t *testing.T) {
	const q1 = `SELECT * WHERE { ?p <urn:score> ?s . ?p <urn:rank> ?r }`
	const q2 = `SELECT * WHERE { ?p <urn:score> ?s . ?p <urn:tag> ?v }`
	var execs atomic.Int64
	opts := ServerOptions{
		MaxConcurrent:    4,
		CheapThreshold:   1, // everything non-trivial is Expensive, so it caches
		ResultCacheBytes: 1 << 20,
	}
	opts.chaos = func(*http.Request) engine.Yielder { execs.Add(1); return nil }
	srv := startServer(t, NewHandler(Load(rankedTriples(400), Options{}), opts))
	uncached := startServer(t, NewHandler(Load(rankedTriples(400), Options{}), ServerOptions{}))

	for i, step := range []struct{ query, lane string }{
		{q1, "miss"}, {q1, "hit"}, {q2, "miss"}, {q1, "hit"},
	} {
		body, lane := getCached(t, srv, step.query)
		if lane != step.lane {
			t.Fatalf("request %d lane = %q, want %q", i, lane, step.lane)
		}
		if want, _ := getCached(t, uncached, step.query); !bytes.Equal(body, want) {
			t.Fatalf("request %d body differs from the uncached server's", i)
		}
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (one per distinct query)", got)
	}
	rc, sel := healthzCaches(t, srv)
	if rc.Hits != 2 || rc.Fills != 2 {
		t.Fatalf("healthz result_cache = %+v, want 2 hits / 2 fills", rc)
	}
	// The selection-cache counters surface in healthz and have seen
	// traffic by now.
	if sel.Hits+sel.Misses == 0 {
		t.Fatalf("selection_cache = %+v, want some traffic", sel)
	}
}

// TestServerResultCacheByteEquality replays randomized WatDiv basic-shape
// instantiations twice each and checks the cached body is byte-for-byte
// the body the engine produced — the contract that makes the fast path
// invisible to clients.
func TestServerResultCacheByteEquality(t *testing.T) {
	data := watdiv.Generate(watdiv.Config{Scale: 0.05, Seed: 7})
	st := Load(data.Triples, Options{})
	var execs atomic.Int64
	opts := ServerOptions{
		MaxConcurrent:    4,
		CheapThreshold:   1,
		ResultCacheBytes: 16 << 20,
	}
	opts.chaos = func(*http.Request) engine.Yielder { execs.Add(1); return nil }
	srv := startServer(t, NewHandler(st, opts))

	rng := rand.New(rand.NewSource(7))
	hits := 0
	for _, tpl := range watdiv.BasicTemplates() {
		q := tpl.Instantiate(data, rng)
		cold, coldLane := getCached(t, srv, q)
		before := execs.Load()
		warm, warmLane := getCached(t, srv, q)
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: cached body diverges from executed body (%d vs %d bytes)",
				tpl.Shape, len(cold), len(warm))
		}
		if warmLane == "hit" {
			hits++
			if coldLane != "miss" {
				t.Fatalf("%s: warm hit after cold lane %q, want miss", tpl.Shape, coldLane)
			}
			if got := execs.Load(); got != before {
				t.Fatalf("%s: cache hit executed the engine (%d -> %d)", tpl.Shape, before, got)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no WatDiv shape produced a cache hit — fill policy broken")
	}

	// ASK answers and zero-variable SELECTs ride the same encoder, tee and
	// fill policy: executed and cached bodies are the same bytes, and the
	// bytes are pinned. A fully bound friendOf pattern costs 3 estimated
	// rows, so the gate (threshold 1) classifies it expensive and it caches.
	var edge Triple
	for _, tr := range data.Triples {
		if strings.HasSuffix(string(tr.P), "friendOf>") {
			edge = tr
			break
		}
	}
	// (The generator repeats some edges, and a zero-variable SELECT answers
	// one empty solution per matching triple.)
	match := fmt.Sprintf("SELECT * WHERE { %s %s %s }", edge.S, edge.P, edge.O)
	matches, err := st.Query(match)
	if err != nil || matches.Len() == 0 {
		t.Fatalf("%s: %v, %d solutions in process", match, err, matches.Len())
	}
	for q, want := range map[string]string{
		fmt.Sprintf("ASK { %s %s ?o }", edge.S, edge.P):         "{\"head\":{},\"boolean\":true}\n",
		fmt.Sprintf("ASK { %s %s %s }", edge.S, edge.P, edge.S): "{\"head\":{},\"boolean\":false}\n",
		match: "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[" + strings.Repeat(",\n{}", matches.Len())[1:] + "\n]}}\n",
		fmt.Sprintf("SELECT * WHERE { %s %s %s }", edge.S, edge.P, edge.S): "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n]}}\n",
	} {
		cold, coldLane := getCached(t, srv, q)
		before := execs.Load()
		warm, warmLane := getCached(t, srv, q)
		if coldLane != "miss" || warmLane != "hit" || execs.Load() != before {
			t.Fatalf("%s: lanes %q then %q (%d executions on the repeat), want miss then hit without executing",
				q, coldLane, warmLane, execs.Load()-before)
		}
		if string(cold) != want || !bytes.Equal(cold, warm) {
			t.Fatalf("%s: executed %q, cached %q, want both %q", q, cold, warm, want)
		}
	}
}

// TestServerResultCacheDistinctLiteralKeys: the result-cache key is the
// normalized query text, and normalizing keeps literals byte-for-byte. Two
// queries that differ only by a space inside a literal fill two entries,
// and each replays its own body.
func TestServerResultCacheDistinctLiteralKeys(t *testing.T) {
	name := rdf.NewIRI("urn:name")
	st := Load([]Triple{
		{S: rdf.NewIRI("urn:A"), P: name, O: rdf.NewLiteral("a b")},
		{S: rdf.NewIRI("urn:B"), P: name, O: rdf.NewLiteral("a  b")},
	}, Options{})
	srv := startServer(t, NewHandler(st, ServerOptions{
		CheapThreshold:   1, // the two-row scan is expensive, so it caches
		ResultCacheBytes: 1 << 20,
	}))
	queries := []string{
		`SELECT ?p WHERE { ?p <urn:name> ?n . FILTER(?n = "a b") }`,
		`SELECT ?p WHERE { ?p <urn:name> ?n . FILTER(?n = "a  b") }`,
	}
	var bodies [2][]byte
	for i, q := range queries {
		var lane string
		if bodies[i], lane = getCached(t, srv, q); lane != "miss" {
			t.Fatalf("query %d: first lane %q, want miss", i, lane)
		}
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("the two queries answered alike: %s", bodies[0])
	}
	if rc, _ := healthzCaches(t, srv); rc.Entries != 2 {
		t.Fatalf("result_cache entries = %d, want 2 (no key collision)", rc.Entries)
	}
	for i, q := range queries {
		if body, lane := getCached(t, srv, q); lane != "hit" || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("query %d: repeat lane %q, body %s; want a hit replaying %s", i, lane, body, bodies[i])
		}
	}
}

// TestServerOneSelectionProbePerExecution: a request that executes plans
// its query exactly once — the cost gate prices that plan and the execution
// runs it — so a one-BGP query looks its BGP up in the selection cache
// exactly once, and a result-cache hit not at all: healthz selection_cache
// hits+misses counts executed one-BGP requests.
func TestServerOneSelectionProbePerExecution(t *testing.T) {
	st := Load(scoreTriples(200), Options{})
	srv := startServer(t, NewHandler(st, ServerOptions{
		CheapThreshold:   100, // the scan caches, the point lookup never does
		ResultCacheBytes: 1 << 20,
	}))
	probes := func() int64 {
		_, sel := healthzCaches(t, srv)
		return sel.Hits + sel.Misses
	}
	const point = `SELECT ?s WHERE { <urn:P1> <urn:score> ?s }`
	for i, step := range []struct {
		query, lane string
		probes      int64
	}{
		{scanQuery, "miss", 1},                               // first sight: one probe (a miss)
		{scanQuery, "hit", 0},                                // served from the result cache
		{"SELECT *\nWHERE { ?p <urn:score>  ?s }", "hit", 0}, // so is a reformatted copy
		{point, "miss", 1},                                   // cheap: executes every time,
		{point, "miss", 1},                                   // one probe (a hit) per execution
	} {
		before := probes()
		if _, lane := getCached(t, srv, step.query); lane != step.lane {
			t.Fatalf("step %d: lane %q, want %q", i, lane, step.lane)
		}
		if got := probes() - before; got != step.probes {
			t.Errorf("step %d (%s, %s): %d selection-cache probes, want %d", i, step.query, step.lane, got, step.probes)
		}
	}
}

// TestServerCacheHitHeaders: a result-cache hit answers with the executed
// response's body, byte for byte, and with exactly five headers besides
// Date — the body's type and length, the mode, the store's health and the
// cache lane. It replays none of the headers that described the work of
// the request that filled the entry. Both a buffered and a streamed result
// are checked, in two modes.
func TestServerCacheHitHeaders(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	srv := startServer(t, NewHandler(st, ServerOptions{
		CheapThreshold:   1, // everything non-trivial is expensive, so it caches
		StreamThreshold:  64,
		ResultCacheBytes: 16 << 20,
	}))
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return resp, body
	}
	for _, c := range []struct{ query, mode string }{
		{`SELECT ?s WHERE { ?p <urn:score> ?s } LIMIT 10`, "ExtVP"},
		{scanQuery, "ExtVP"}, // streamed: over the 64-row threshold
		{scanQuery, "VP"},
	} {
		path := "/sparql?mode=" + c.mode + "&query=" + url.QueryEscape(c.query)
		miss, missBody := get(path)
		if lane := miss.Header.Get("X-S2RDF-Cache"); lane != "miss" {
			t.Fatalf("%s: first lane %q, want miss", path, lane)
		}
		if miss.Header.Get("X-S2RDF-Rows-Scanned") == "" {
			t.Fatalf("%s: the executed response reports no metrics", path)
		}
		hit, hitBody := get(path)
		if !bytes.Equal(hitBody, missBody) {
			t.Fatalf("%s: hit body differs from the executed body", path)
		}
		want := map[string]string{
			"Content-Type":         miss.Header.Get("Content-Type"),
			"Content-Length":       strconv.Itoa(len(missBody)),
			"X-S2rdf-Mode":         c.mode,
			"X-S2rdf-Store-Health": miss.Header.Get("X-S2RDF-Store-Health"),
			"X-S2rdf-Cache":        "hit",
		}
		got := map[string]string{}
		for k, v := range hit.Header {
			if k != "Date" {
				got[k] = strings.Join(v, ",")
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hit headers %v, want exactly %v", path, got, want)
		}
	}
}

// TestServerCacheStampede sends 8 concurrent identical requests for a cold
// query. Nothing coalesces them: each miss executes on its own, admission
// bounding how many run at once, and fills the same key; a request that
// arrives after the first fill is a hit. Every reply is the same complete
// document, and once the stampede is over the query is a plain cache hit.
func TestServerCacheStampede(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	var execs atomic.Int64
	opts := ServerOptions{
		MaxConcurrent:    4,
		CheapThreshold:   1, // the full scan is expensive, so it caches
		StreamThreshold:  64,
		ResultCacheBytes: 16 << 20,
	}
	opts.chaos = func(*http.Request) engine.Yielder { execs.Add(1); return nil }
	srv := startServer(t, NewHandler(st, opts))

	const requests = 8
	// stampede fires the requests at once and checks that each is a 200
	// miss or hit carrying the same body, with one execution per miss. It
	// returns that body.
	stampede := func(q string) []byte {
		t.Helper()
		type reply struct {
			body []byte
			lane string
			err  error
		}
		replies := make([]reply, requests)
		before := execs.Load()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range replies {
			wg.Add(1)
			go func(r *reply) {
				defer wg.Done()
				<-start
				r.body, r.lane, r.err = fetchCached(srv, q)
			}(&replies[i])
		}
		close(start)
		wg.Wait()
		misses := int64(0)
		for i, r := range replies {
			if r.err != nil {
				t.Fatalf("%s: request %d: %v", q, i, r.err)
			}
			switch r.lane {
			case "miss":
				misses++
			case "hit":
			default:
				t.Fatalf("%s: request %d lane = %q, want miss or hit", q, i, r.lane)
			}
			if !bytes.Equal(r.body, replies[0].body) {
				t.Fatalf("%s: request %d body diverges (%d vs %d bytes)", q, i, len(r.body), len(replies[0].body))
			}
		}
		if n := execs.Load() - before; n < 1 || n > requests || n != misses {
			t.Fatalf("%s: %d executions for %d misses, want 1 to %d, one per miss", q, n, misses, requests)
		}
		return replies[0].body
	}

	body := stampede(scanQuery)
	var doc resultsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stampede document invalid: %v", err)
	}
	if len(doc.Results.Bindings) != 3000 {
		t.Fatalf("stampede replies carry %d bindings, want 3000", len(doc.Results.Bindings))
	}
	before := execs.Load()
	again, lane := getCached(t, srv, scanQuery)
	if lane != "hit" || !bytes.Equal(again, body) || execs.Load() != before {
		t.Fatalf("follow-up lane %q with %d executions (same bytes: %v), want a hit on the stampede's bytes without executing",
			lane, execs.Load()-before, bytes.Equal(again, body))
	}
	if rc, _ := healthzCaches(t, srv); rc.Entries != 1 {
		t.Fatalf("healthz result_cache entries = %d after the stampede, want 1", rc.Entries)
	}

	// Buffered documents — ASK answers and zero-variable SELECTs — take the
	// same path: every reply is the pinned document.
	for q, want := range map[string]string{
		`ASK { ?p <urn:score> ?s }`:                   "{\"head\":{},\"boolean\":true}\n",
		`SELECT * WHERE { <urn:P1> <urn:score> 1 }`:   "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n{}\n]}}\n",
		`SELECT * WHERE { <urn:P1> <urn:score> 999 }`: "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[\n]}}\n",
	} {
		if got := stampede(q); string(got) != want {
			t.Fatalf("%s: body %q, want %q", q, got, want)
		}
	}
}
