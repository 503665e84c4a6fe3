package s2rdf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s2rdf/internal/core"
	"s2rdf/internal/engine"
	"s2rdf/internal/fault"
	"s2rdf/internal/store"
)

// The serving chaos suite: operator panics, failed stores and corrupted
// store directories must cost exactly one request (or one store) — never
// the process, never a wrong answer.

// panicHeader marks a request the chaos hook should blow up mid-execution.
const panicHeader = "X-Test-Panic"

// chaosYielder panics at an engine yield point: immediately when armed at
// construction, or once arm() is called (for mid-stream injection after
// the first flush).
type chaosYielder struct{ armed atomic.Bool }

func (y *chaosYielder) Yield() {
	if y.armed.Load() {
		panic("chaos: injected operator panic")
	}
}

// chaosServer serves st with the per-request panic hook installed: any
// request carrying panicHeader gets a yielder that panics per yd.
func chaosServer(t *testing.T, st *Store, opts ServerOptions, yd func() engine.Yielder) *httptest.Server {
	t.Helper()
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = 4
	}
	opts.chaos = func(r *http.Request) engine.Yielder {
		if r.Header.Get(panicHeader) == "" {
			return nil
		}
		return yd()
	}
	srv := startServer(t, NewHandler(st, opts))
	return srv
}

// TestPanicBeforeFirstByteIs500: a request whose query panics during plan
// execution gets a JSON 500 — and the process keeps serving: the very next
// request (same server, same engines) answers correctly with every gauge
// drained.
func TestPanicBeforeFirstByteIs500(t *testing.T) {
	st := Load(exampleTriples(), Options{})
	srv := chaosServer(t, st, ServerOptions{}, func() engine.Yielder {
		y := &chaosYielder{}
		y.armed.Store(true) // blow up at the first yield point
		return y
	})

	req, _ := http.NewRequest(http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(followsQuery), nil)
	req.Header.Set(panicHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var errDoc map[string]string
	if err := json.Unmarshal(body, &errDoc); err != nil {
		t.Fatalf("500 body is not the JSON error document: %v (%s)", err, body)
	}
	if !strings.Contains(errDoc["error"], "panic") {
		t.Fatalf("error message %q does not mention the panic", errDoc["error"])
	}
	if got := resp.Header.Get("X-S2RDF-Store-Health"); got != "healthy" {
		t.Fatalf("store health header = %q after an isolated panic, want healthy", got)
	}

	// The process keeps serving.
	resp2, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200", resp2.StatusCode)
	}
	doc := decodeResults(t, resp2)
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("follow-up bindings = %v", doc.Results.Bindings)
	}
	assertQuiescent(t, srv)
}

// TestPanicMidStreamTruncates: a query that panics after its first flushed
// batch cannot change the 200 status line anymore — the stream ends with
// the trailing "error" member and a truncated connection, exactly the
// mid-stream cancellation contract.
func TestPanicMidStreamTruncates(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	y := &chaosYielder{}
	opts := ServerOptions{
		StreamThreshold: 64,
		CheapThreshold:  1 << 30, // keep the chaos hook the only yielder
		flushed:         func(int) { y.armed.Store(true) },
	}
	srv := chaosServer(t, st, opts, func() engine.Yielder { return y })

	req, _ := http.NewRequest(http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(scanQuery), nil)
	req.Header.Set(panicHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (mid-stream failures cannot change the status line)", resp.StatusCode)
	}
	if resp.Header.Get("X-S2RDF-Streaming") != "true" {
		t.Fatal("response did not take the streaming path")
	}
	body, readErr := io.ReadAll(resp.Body)
	if readErr == nil {
		t.Fatal("connection closed cleanly; want a transport-level truncation")
	}
	if !strings.Contains(string(body), `"error":`) {
		t.Fatalf("body carries no trailing error member: %.200s...", body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Fatalf("trailing error hides the panic: %.200s", body)
	}

	// Still serving, gauges drained.
	resp2, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d", resp2.StatusCode)
	}
	assertQuiescent(t, srv)
}

// TestPanicWithLookAheadInFlight: a panic at the producer's yield point
// while two encoded batches wait ahead of the socket write ends the body
// like any mid-stream failure — the batches before it, then the trailing
// "error" member and a truncated connection — and leaves no goroutine of
// the pipeline behind. The first flush arms the yielder to panic at the
// producer's fourth block pull; the writer holds after writing the first
// pipeline batch until the panic has struck, so the second and third are
// in flight when it does.
func TestPanicWithLookAheadInFlight(t *testing.T) {
	st := Load(scoreTriples(12000), Options{})
	var (
		flushes  atomic.Int64
		pulls    atomic.Int64
		armed    atomic.Bool
		panicked = make(chan struct{})
	)
	y := yielderFunc(func() {
		if armed.Load() && pulls.Add(1) == 4 {
			close(panicked)
			panic("chaos: injected operator panic")
		}
	})
	opts := ServerOptions{
		StreamThreshold: 64,
		CheapThreshold:  1 << 30, // keep the chaos hook the only yielder
		flushed: func(int) {
			switch flushes.Add(1) {
			case 1:
				armed.Store(true)
			case 2:
				select {
				case <-panicked:
				case <-time.After(10 * time.Second):
					t.Error("the producer never reached its fourth pull")
				}
			}
		},
	}
	srv := chaosServer(t, st, opts, func() engine.Yielder { return y })

	req, _ := http.NewRequest(http.MethodGet,
		srv.URL+"/sparql?query="+url.QueryEscape(scanQuery), nil)
	req.Header.Set(panicHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || readErr == nil {
		t.Fatalf("status %d, read error %v; want 200 and a truncated connection", resp.StatusCode, readErr)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]map[string]string `json:"bindings"`
		} `json:"results"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("truncated body is not a complete JSON document: %v; tail %q", err, body[max(0, len(body)-200):])
	}
	if !strings.Contains(doc.Error, "panic") {
		t.Fatalf("trailing error member %q does not name the panic", doc.Error)
	}
	// Every batch pulled before the panic is delivered: the head's buffered
	// ones (past the threshold of 64 rows) and the three in the pipeline.
	s, err := st.Engine(ModeExtVP).QueryStream(context.Background(), scanQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, pipelined := 0, 0
	for pipelined < 3 {
		b, err := s.NextBlock()
		if err != nil || b == nil {
			t.Fatalf("in-process stream ended early: %v", err)
		}
		if want > 64 {
			pipelined++
		}
		want += b.Len()
	}
	if n := len(doc.Results.Bindings); n != want {
		t.Fatalf("%d bindings before the trailer, want %d", n, want)
	}

	resp2, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || err != nil || n == 0 {
		t.Fatalf("follow-up: status %d, %d bytes, err %v", resp2.StatusCode, n, err)
	}
	assertQuiescent(t, srv)
}

// yielderFunc adapts a function to engine.Yielder.
type yielderFunc func()

func (f yielderFunc) Yield() { f() }

// TestPanicInEncoderBecomesQueryError: an encoder goroutine of the
// pipeline recovers its own panic into the batch's error — a panic off the
// handler goroutine would take the process down.
func TestPanicInEncoderBecomesQueryError(t *testing.T) {
	p := &encodePipeline{enc: &streamEncoder{rest: [][]byte{[]byte(`,"x":`)}}} // no dictionary
	b := engine.NewBlock(1, 1)
	b.Append(engine.Row{0})
	c := &encodedBatch{ready: make(chan struct{})}
	p.wg.Add(1)
	p.encode(c, nil, b)
	<-c.ready
	var pe *core.QueryPanicError
	if !errors.As(c.err, &pe) || !errors.Is(c.err, core.ErrInternal) {
		t.Fatalf("encoder panic surfaced as %v, want a *core.QueryPanicError", c.err)
	}
}

// TestPanicCrashContinuity is the crash-continuity e2e: one request panics
// mid-execution while concurrent requests stream the same store. The
// concurrent requests complete with full results, the panicking one gets
// its 500, the server stays up and every gauge drains to zero.
func TestPanicCrashContinuity(t *testing.T) {
	st := Load(scoreTriples(3000), Options{})
	srv := chaosServer(t, st, ServerOptions{StreamThreshold: 64, MaxConcurrent: 8},
		func() engine.Yielder {
			y := &chaosYielder{}
			y.armed.Store(true)
			return y
		})

	const good = 6
	var wg sync.WaitGroup
	errs := make(chan error, good+1)

	wantRows := -1
	{
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantRows = strings.Count(string(body), `"type"`)
	}

	for i := 0; i < good; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(scanQuery))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("concurrent stream truncated: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("concurrent status %d", resp.StatusCode)
				return
			}
			if got := strings.Count(string(body), `"type"`); got != wantRows {
				errs <- fmt.Errorf("concurrent result has %d cells, want %d", got, wantRows)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodGet,
			srv.URL+"/sparql?query="+url.QueryEscape(scanQuery), nil)
		req.Header.Set(panicHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errs <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			errs <- fmt.Errorf("panicking request got %d, want 500", resp.StatusCode)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertQuiescent(t, srv)
}

// TestFailedStoreGated: a store in the failed health state answers 503 +
// Retry-After on its route while a healthy sibling store keeps serving
// from the same process, and healthz reports both records.
func TestFailedStoreGated(t *testing.T) {
	healthy := Load(exampleTriples(), Options{})
	broken := NewUnavailableStore("manifest checksum mismatch")
	h, err := NewMux(map[string]*Store{"good": healthy, "bad": broken}, "good", ServerOptions{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, h)

	resp, err := http.Get(srv.URL + "/sparql/bad?query=" + url.QueryEscape(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed store status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
	if got := resp.Header.Get("X-S2RDF-Store-Health"); got != "failed" {
		t.Fatalf("health header = %q, want failed", got)
	}
	if !strings.Contains(string(body), "manifest checksum mismatch") {
		t.Fatalf("503 body hides the failure reason: %s", body)
	}

	resp2, err := http.Get(srv.URL + "/sparql/good?query=" + url.QueryEscape(followsQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthy sibling status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-S2RDF-Store-Health"); got != "healthy" {
		t.Fatalf("healthy sibling health header = %q", got)
	}

	report := readHealthz(t, srv)
	if report.Status != "failed" {
		t.Fatalf("healthz status = %q with a failed store, want failed", report.Status)
	}
	stores := report.Stores
	if stores["bad"].Health.State != "failed" || stores["good"].Health.State != "healthy" {
		t.Fatalf("healthz health records = bad:%v good:%v",
			stores["bad"].Health, stores["good"].Health)
	}
}

// TestCorruptStoreDirectoryEndToEnd: persist a store, flip one byte in a
// table file, and prove the full contract — Open reports ErrCorrupt, the
// store is served as unavailable (503 + failed health), and no request
// ever sees bindings from the corrupted data.
func TestCorruptStoreDirectoryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st := Load(exampleTriples(), Options{})
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of a persisted table's chunked payload.
	tables, err := filepath.Glob(filepath.Join(dir, "*.tbl"))
	if err != nil || len(tables) == 0 {
		entries, _ := os.ReadDir(dir)
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("no table files under %s (entries: %v)", dir, names)
	}
	target := tables[0]
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("table file %s too small to corrupt meaningfully", target)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a corrupted store directory")
	}
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open error %v does not wrap store.ErrCorrupt", err)
	}

	// Serve it the way the CLI does: route alive, queries refused.
	broken := NewUnavailableStore(err.Error())
	srv := startServer(t, NewHandler(broken, ServerOptions{MaxConcurrent: 2}))
	resp, rerr := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(followsQuery))
	if rerr != nil {
		t.Fatal(rerr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt store status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-S2RDF-Store-Health"); got != "failed" {
		t.Fatalf("health header = %q, want failed", got)
	}
}

// TestCorruptStoreServedUnavailable: one flipped bit in a saved store's
// dictionary fails Open with store.ErrCorrupt; served the way the CLI
// serves it, the store answers 503 + Retry-After naming the failure while a
// healthy sibling in the same mux keeps answering.
func TestCorruptStoreServedUnavailable(t *testing.T) {
	dir := t.TempDir()
	if err := Load(exampleTriples(), Options{}).Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dict.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(dir, Options{})
	if !errors.Is(openErr, store.ErrCorrupt) {
		t.Fatalf("Open on a store with a flipped dictionary bit: %v, want store.ErrCorrupt", openErr)
	}

	h, err := NewMux(map[string]*Store{
		"good": Load(exampleTriples(), Options{}),
		"bad":  NewUnavailableStore(openErr.Error()),
	}, "good", ServerOptions{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, h)
	resp, rerr := http.Get(srv.URL + "/sparql/bad?query=" + url.QueryEscape(followsQuery))
	if rerr != nil {
		t.Fatal(rerr)
	}
	var body struct {
		Error string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("corrupt store status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
	if derr != nil || !strings.Contains(body.Error, openErr.Error()) || !strings.Contains(body.Error, "data corruption detected") {
		t.Fatalf("503 body %q (%v) does not carry the Open error %q", body.Error, derr, openErr)
	}

	resp2, rerr := http.Get(srv.URL + "/sparql/good?query=" + url.QueryEscape(followsQuery))
	if rerr != nil {
		t.Fatal(rerr)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthy sibling status = %d, want 200", resp2.StatusCode)
	}
}

// spillJoinQuery is an object-object self-join with heavy fan-out: under a
// 1-byte memory budget its hash-join build routes through the spill path.
const spillJoinQuery = `SELECT * WHERE { ?a <urn:score> ?s . ?b <urn:score> ?s }`

// TestHealthDegradesOnSpillFaults: persistent injected spill failures under
// a tight memory budget degrade the store's health (visible in healthz and
// the response header) while queries keep answering correctly from the
// in-memory fallback; a later healthy spill heals it.
func TestHealthDegradesOnSpillFaults(t *testing.T) {
	st := Load(scoreTriples(2000), Options{})
	st.SetMemBudget(1, t.TempDir())
	in := fault.NewInjector(fault.OS)
	in.FailWritesFrom(1, nil)
	st.SetFaultFS(in)
	srv := startServer(t, NewHandler(st, ServerOptions{MaxConcurrent: 2}))

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(spillJoinQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d under injected spill faults, want 200 (fallback)", resp.StatusCode)
	}
	rows := strings.Count(string(body), `"type"`)
	if rows == 0 {
		t.Fatal("no bindings under injected spill faults")
	}
	if st.Health().State != "degraded" {
		t.Fatalf("store health = %v after persistent spill failures, want degraded", st.Health().State)
	}
	if status := readHealthz(t, srv).Status; status != "degraded" {
		t.Fatalf("healthz status = %q, want degraded", status)
	}

	// Heal: stop injecting; the next spilling query reports success.
	st.SetFaultFS(nil)
	resp2, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(spillJoinQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-S2RDF-Store-Health"); got != "degraded" && got != "healthy" {
		t.Fatalf("health header = %q", got)
	}
	if st.Health().State != "healthy" {
		t.Fatalf("store health = %v after healthy spill, want healthy", st.Health().State)
	}
}
