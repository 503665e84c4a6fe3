package s2rdf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s2rdf/internal/rdf"
)

// scoreTriples builds n subjects with an integer score in [0, n/4): plenty
// of duplicate scores, so an object-object self-join fans out and a full
// scan spans several 1024-row engine batches.
func scoreTriples(n int) []Triple {
	p := rdf.NewIRI("urn:score")
	triples := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		triples = append(triples, Triple{
			S: rdf.NewIRI(fmt.Sprintf("urn:P%d", i)),
			P: p,
			O: rdf.NewInteger(int64(i % (n / 4))),
		})
	}
	return triples
}

// gatePacer is the test's engine pacing hook. Unarmed it is a no-op, so
// plan execution runs freely; once armed (by the server's first streamed
// flush) every engine yield point blocks on the gate, announcing itself on
// waiting — the engine is then provably held mid-production.
type gatePacer struct {
	armed   atomic.Bool
	waiting chan struct{}
	release chan struct{}
}

func newGatePacer() *gatePacer {
	return &gatePacer{waiting: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p *gatePacer) Yield() {
	if !p.armed.Load() {
		return
	}
	select {
	case p.waiting <- struct{}{}:
	default:
	}
	<-p.release
}

// awaitBlocked waits until the engine parks on the gate.
func (p *gatePacer) awaitBlocked(t *testing.T) {
	t.Helper()
	select {
	case <-p.waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("engine never blocked on the pacer gate")
	}
}

// streamServer starts a server whose first streamed flush arms the pacer.
func streamServer(t *testing.T, st *Store, pacer *gatePacer, opts ServerOptions) *httptest.Server {
	t.Helper()
	opts.MaxConcurrent = 4
	opts.CheapThreshold = 1 << 30 // keep the pacer the only yield hook
	if pacer != nil {
		opts.pacer = pacer
		opts.flushed = func(int) { pacer.armed.Store(true) }
	}
	srv := startServer(t, NewHandler(st, opts))
	return srv
}

const scanQuery = `SELECT * WHERE { ?p <urn:score> ?s }`

// TestServerStreamsBeforeCompletion is the tentpole's acceptance test: the
// client holds response bytes in hand while the engine is provably still
// producing (parked on the pacer gate mid-stream).
func TestServerStreamsBeforeCompletion(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	pacer := newGatePacer()
	srv := streamServer(t, st, pacer, ServerOptions{StreamThreshold: 64})

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-S2RDF-Streaming"); got != "true" {
		t.Fatalf("X-S2RDF-Streaming = %q, want true", got)
	}
	if resp.Header.Get("X-S2RDF-TTFR") == "" {
		t.Fatal("missing X-S2RDF-TTFR header")
	}

	// First bytes must be readable while the engine is held mid-stream.
	first := make([]byte, 64<<10)
	n, err := resp.Body.Read(first)
	if err != nil || n == 0 {
		t.Fatalf("first read: %d bytes, err %v", n, err)
	}
	pacer.awaitBlocked(t)
	got := string(first[:n])
	if !strings.Contains(got, `"bindings"`) {
		t.Fatalf("first bytes carry no results head: %q", got[:min(200, len(got))])
	}
	if strings.Contains(got, "]}}") {
		t.Fatal("response already complete before the engine finished")
	}
	if streaming := readHealthz(t, srv).Stores[DefaultStoreName].Streaming; streaming != 1 {
		t.Fatalf("healthz streaming gauge = %d mid-stream, want 1", streaming)
	}

	close(pacer.release)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("draining stream: %v", err)
	}
	var doc resultsDoc
	if err := json.Unmarshal(append(first[:n], rest...), &doc); err != nil {
		t.Fatalf("streamed document is not valid JSON: %v", err)
	}
	if len(doc.Results.Bindings) != 3000 {
		t.Fatalf("streamed %d bindings, want 3000", len(doc.Results.Bindings))
	}
	if strings.Contains(string(rest), `"error"`) {
		t.Fatal("clean stream carries an error member")
	}
}

// TestServerStreamCancelMidwayStopsProduction disconnects the client after
// the first streamed bytes and checks the engine stops producing batches
// and the scheduler slot and streaming gauge are released.
func TestServerStreamCancelMidwayStopsProduction(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	pacer := newGatePacer()
	srv := streamServer(t, st, pacer, ServerOptions{StreamThreshold: 64})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(scanQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	buf := make([]byte, 64<<10)
	if n, err := resp.Body.Read(buf); err != nil || n == 0 {
		t.Fatalf("first read: %d bytes, err %v", n, err)
	}
	pacer.awaitBlocked(t)

	// Client gives up mid-stream; the gate opens and the engine must
	// observe the cancellation at its next batch boundary.
	cancel()
	close(pacer.release)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break // truncated body: the server tore the connection down
		}
	}

	// Slot and gauge release: once the engine observes the cancellation the
	// handler must finish, free its worker slot and drop the streaming
	// gauge back to zero.
	assertQuiescent(t, srv)
}

// TestServerStreamDeadlineTrailingError lets the query deadline expire
// mid-stream while the client keeps reading: the body must end with the
// trailing "error" extension member and the connection must be closed
// without a clean terminator.
func TestServerStreamDeadlineTrailingError(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	pacer := newGatePacer()
	srv := streamServer(t, st, pacer, ServerOptions{StreamThreshold: 64})

	u := srv.URL + "/sparql?timeout=300ms&query=" + url.QueryEscape(scanQuery)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (deadline must not beat the first flush)", resp.StatusCode)
	}

	var body []byte
	buf := make([]byte, 64<<10)
	n, err := resp.Body.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("first read: %d bytes, err %v", n, err)
	}
	body = append(body, buf[:n]...)
	pacer.awaitBlocked(t)

	// Hold the engine past the deadline, then let it observe it.
	time.Sleep(400 * time.Millisecond)
	close(pacer.release)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break // the abort closes the connection without a terminator
		}
	}
	if !strings.Contains(string(body), `"error":"query deadline exceeded mid-stream"`) {
		t.Fatalf("truncated stream carries no trailing error member; tail: %q",
			string(body[max(0, len(body)-200):]))
	}
}

// TestServerMemBudgetSpillEquivalence runs a fan-out self-join under a
// 1-byte budget over HTTP and checks the spill is reported (header and
// healthz gauge) and the bindings agree with an unbudgeted store.
func TestServerMemBudgetSpillEquivalence(t *testing.T) {
	triples := scoreTriples(600)
	const q = `SELECT * WHERE { ?a <urn:score> ?s . ?b <urn:score> ?s }`

	free := Load(triples, Options{})
	want, err := free.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	st := Load(triples, Options{})
	srv := streamServer(t, st, nil, ServerOptions{MemBudget: 1, SpillDir: t.TempDir()})
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	spilledHdr, err := strconv.ParseInt(resp.Header.Get("X-S2RDF-Bytes-Spilled"), 10, 64)
	if err != nil || spilledHdr <= 0 {
		t.Fatalf("X-S2RDF-Bytes-Spilled = %q, want a positive count",
			resp.Header.Get("X-S2RDF-Bytes-Spilled"))
	}
	doc := decodeResults(t, resp)
	if len(doc.Results.Bindings) != want.Len() {
		t.Fatalf("spilled join returned %d bindings, want %d", len(doc.Results.Bindings), want.Len())
	}
	// Full equivalence, not just cardinality: canonicalize both sides.
	gotSet := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		gotSet = append(gotSet, fmt.Sprintf("%v|%v", b["a"]["value"], b["b"]["value"]))
	}
	wantSet := make([]string, 0, want.Len())
	for _, bind := range want.Bindings() {
		wantSet = append(wantSet, fmt.Sprintf("%v|%v", bind["a"].Value(), bind["b"].Value()))
	}
	sort.Strings(gotSet)
	sort.Strings(wantSet)
	if len(gotSet) != len(wantSet) {
		t.Fatal("binding multisets differ in size")
	}
	for i := range gotSet {
		if gotSet[i] != wantSet[i] {
			t.Fatalf("binding %d: got %s, want %s", i, gotSet[i], wantSet[i])
		}
	}
	if spilled := readHealthz(t, srv).Stores[DefaultStoreName].SpilledBytes; spilled <= 0 {
		t.Fatalf("healthz spilled_bytes = %d, want positive", spilled)
	}
}

// TestServerSmallResultNotStreamed keeps the single-document contract for
// results within the threshold: no streaming marker, final metrics in the
// headers (including the new TTFR and peak-mem ones).
func TestServerSmallResultNotStreamed(t *testing.T) {
	st := Load(scoreTriples(200), Options{})
	srv := streamServer(t, st, nil, ServerOptions{}) // default threshold 1024
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-S2RDF-Streaming"); got != "" {
		t.Fatalf("small result marked streaming (%q)", got)
	}
	ttfr, err := time.ParseDuration(resp.Header.Get("X-S2RDF-TTFR"))
	if err != nil || ttfr <= 0 {
		t.Fatalf("X-S2RDF-TTFR = %q, want a positive duration", resp.Header.Get("X-S2RDF-TTFR"))
	}
	if pm, err := strconv.ParseInt(resp.Header.Get("X-S2RDF-Peak-Mem"), 10, 64); err != nil || pm <= 0 {
		t.Fatalf("X-S2RDF-Peak-Mem = %q, want a positive byte count",
			resp.Header.Get("X-S2RDF-Peak-Mem"))
	}
	doc := decodeResults(t, resp)
	if len(doc.Results.Bindings) != 200 {
		t.Fatalf("bindings = %d, want 200", len(doc.Results.Bindings))
	}
}

// TestServerStreamBodiesByteIdentical: a result written as one buffered
// document, streamed through the encode pipeline, and replayed from the
// result cache is the same bytes. The ordered OPTIONAL query leaves its
// first column unbound on three rows in four (the row's first binding then
// sits in a later column) and arrives in an odd number of at least five
// engine batches, so the look-ahead's last batch has no partner; the
// unordered one crosses partition boundaries; the empty result has no row
// separator at all.
func TestServerStreamBodiesByteIdentical(t *testing.T) {
	st := Load(rankedTriples(4500), Options{})
	const optional = `SELECT ?t ?p ?s WHERE { ?p <urn:score> ?s OPTIONAL { ?p <urn:tag> ?t } }`
	queries := []string{
		optional + ` ORDER BY ?p`,
		optional,
		`SELECT * WHERE { ?p <urn:score> ?s FILTER(?s < 0) }`,
	}

	s, err := st.Engine(ModeExtVP).QueryStream(context.Background(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for {
		b, err := s.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
	}
	if batches < 5 || batches%2 == 0 {
		t.Fatalf("ordered query arrives in %d batches, want an odd count of at least 5", batches)
	}

	common := ServerOptions{MaxConcurrent: 4, CheapThreshold: 1, ResultCacheBytes: 64 << 20}
	bufferedOpts, streamedOpts := common, common
	bufferedOpts.StreamThreshold = 1 << 20
	streamedOpts.StreamThreshold = 64
	buffered := startServer(t, NewHandler(st, bufferedOpts))
	streamed := startServer(t, NewHandler(st, streamedOpts))

	get := func(srv *httptest.Server, q string) (body []byte, streaming, lane string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if body, err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", q, resp.StatusCode, err)
		}
		return body, resp.Header.Get("X-S2RDF-Streaming"), resp.Header.Get("X-S2RDF-Cache")
	}
	for i, q := range queries {
		want, streaming, _ := get(buffered, q)
		if streaming != "" {
			t.Fatalf("query %d: buffered server streamed", i)
		}
		got, streaming, lane := get(streamed, q)
		if empty := i == 2; streaming != "true" && !empty || lane != "miss" {
			t.Fatalf("query %d: streaming %q, cache %q on the first run", i, streaming, lane)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d: streamed body (%d bytes) differs from buffered (%d bytes)", i, len(got), len(want))
		}
		replay, _, lane := get(streamed, q)
		if lane != "hit" || !bytes.Equal(replay, want) {
			t.Fatalf("query %d: cache %q, replayed body equal: %v", i, lane, bytes.Equal(replay, want))
		}
	}
	var doc resultsDoc
	body, _, _ := get(buffered, queries[0])
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	unbound := 0
	for _, b := range doc.Results.Bindings {
		if _, ok := b["t"]; !ok {
			unbound++
		}
	}
	if len(doc.Results.Bindings) != 4500 || unbound != 4500*3/4 {
		t.Fatalf("%d bindings, %d without ?t; want 4500 and %d", len(doc.Results.Bindings), unbound, 4500*3/4)
	}
	if empty, _, _ := get(buffered, queries[2]); string(empty) != "{\"head\":{\"vars\":[\"p\",\"s\"]},\"results\":{\"bindings\":[\n]}}\n" {
		t.Fatalf("empty result body %q", empty)
	}
}

// TestServerStreamStopsAtFailedWrite: once a write to a departed client
// fails, the response stops — no further batch is encoded or flushed —
// even when nothing cancels the request's context (here the handler
// strips it), the other signal a disconnect can give. At most the batches
// already in the look-ahead window reach the socket after the client
// closed; then every goroutine and gauge is back at rest.
func TestServerStreamStopsAtFailedWrite(t *testing.T) {
	st := Load(scoreTriples(20000), Options{})
	pacer := newGatePacer()
	var flushes atomic.Int64
	h := NewHandler(st, ServerOptions{
		MaxConcurrent:   4,
		CheapThreshold:  1 << 30,
		StreamThreshold: 64,
		pacer:           pacer,
		flushed: func(int) {
			flushes.Add(1)
			pacer.armed.Store(true)
		},
	})
	srv := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(context.WithoutCancel(r.Context())))
	}))

	// The client closes the socket itself: an early resp.Body.Close returns
	// before the transport's read loop closes the connection, so the
	// server's writes could keep succeeding after closedAt is read.
	conns := make(chan net.Conn, 1)
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				conns <- c
			}
			return c, err
		},
	}}
	resp, err := client.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := resp.Body.Read(make([]byte, 64<<10)); err != nil || n == 0 {
		t.Fatalf("first read: %d bytes, err %v", n, err)
	}
	pacer.awaitBlocked(t)
	if err := (<-conns).Close(); err != nil {
		t.Fatal(err)
	}
	closedAt := flushes.Load()
	resp.Body.Close()
	client.CloseIdleConnections()
	close(pacer.release)
	assertQuiescent(t, srv)
	if after := flushes.Load() - closedAt; after > streamBuffers {
		t.Fatalf("%d batches flushed after the client closed, want at most %d", after, streamBuffers)
	}
}
