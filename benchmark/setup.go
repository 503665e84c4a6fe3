package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"s2rdf"
	"s2rdf/internal/layout"
	"s2rdf/internal/watdiv"
)

// probeText is the query that ends a set-up: the store counts as up once it
// has answered C3 over HTTP.
var probeText = templatesByName([]string{"C3"})[0].Text

// server is the real mux on a loopback listener in this process.
type server struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startServer serves st with default options (MaxConcurrent = GOMAXPROCS,
// StreamThreshold 1024, no timeout) and the given result-cache budget.
func startServer(st *s2rdf.Store, cacheBytes int64) (*server, error) {
	mux, err := s2rdf.NewMux(map[string]*s2rdf.Store{s2rdf.DefaultStoreName: st},
		s2rdf.DefaultStoreName, s2rdf.ServerOptions{ResultCacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- s2rdf.ServeListener(ctx, ln, mux, 0) }()
	return s, nil
}

// stop drains the server and returns once its listener goroutine has ended.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// setupTimes is one set-up, by step.
type setupTimes struct {
	generate, load, save, open, listen time.Duration
	triples                            int
	diskBytes                          int64
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.load + t.save + t.open + t.listen
}

// env is a store that has been built, saved, reopened and is being served.
type env struct {
	data  *watdiv.Data // entity pools only; the triples are dropped
	store *s2rdf.Store
	dir   string
	srv   *server
	times setupTimes
}

func (e *env) close() error {
	var err error
	if e.srv != nil {
		err = e.srv.stop()
		e.srv = nil
	}
	return err
}

// setUp does what a deployment does before it can answer: generate the
// data, s2rdf.Load it (dictionary, VP, ExtVP semi-joins), Store.Save it,
// s2rdf.Open the saved directory, listen, and answer one probe. The store
// served afterwards is the reopened one, as under `s2rdf serve`.
func setUp(dir string, cacheBytes int64) (*env, error) {
	var t setupTimes
	mark := time.Now()
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	data := watdiv.Generate(watdiv.Config{Scale: dataScale, Seed: populationSeed})
	t.generate = lap()
	t.triples = len(data.Triples)
	built := s2rdf.Load(data.Triples, s2rdf.Options{})
	data.Triples = nil
	t.load = lap()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := built.Save(dir); err != nil {
		return nil, fmt.Errorf("save store: %w", err)
	}
	built = nil
	t.save = lap()
	st, err := s2rdf.Open(dir, s2rdf.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	t.open = lap()
	srv, err := startServer(st, cacheBytes)
	if err != nil {
		return nil, err
	}
	tr, clients := newClients(srv.url+"/sparql", 0)
	r := clients[0].do(&query{template: "C3", text: probeText, wantRows: -1}, time.Now(), false)
	tr.CloseIdleConnections()
	if r.fail != "" {
		srv.stop()
		return nil, fmt.Errorf("set-up probe: %s", r.fail)
	}
	t.listen = lap()
	if t.diskBytes, err = layout.DiskBytes(dir); err != nil {
		srv.stop()
		return nil, err
	}
	return &env{data: data, store: st, dir: dir, srv: srv, times: t}, nil
}

// liveHeapMB is the live heap after a collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
