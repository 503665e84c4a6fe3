// Benchmarks for the result-cache serving fast path: the same expensive
// WatDiv complex-shape query served cold (cache disabled, every request
// executes) versus warm (cache enabled and primed, every request is a
// hit served from pre-serialized bytes). The warm benchmark reports
// execs/op — engine executions per served request — which must be 0: a
// hit never plans, never scans, never decodes a term.
package s2rdf

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"

	"math/rand"
	"sync"

	"s2rdf/internal/engine"
	"s2rdf/internal/watdiv"
)

// The cache benchmarks use their own, larger fixture than the paper's
// evaluation tables: the fast path's value is proportional to how much
// work a hit avoids, so the cold side must be a genuinely expensive
// query. A top-100 over C3 (the unbounded complex star, the most
// expensive basic shape) on a scale-1 store is the cache's target
// class: the engine executes and sorts the full star fan-out on every
// cold request, while the servable body stays small.
var (
	cacheFixOnce  sync.Once
	cacheFixStore *Store
	cacheFixQuery string
)

func benchCacheFixture(b *testing.B) (*Store, string) {
	b.Helper()
	cacheFixOnce.Do(func() {
		data := watdiv.Generate(watdiv.Config{Scale: 1, Seed: 42})
		cacheFixStore = Load(data.Triples, Options{})
		rng := rand.New(rand.NewSource(42))
		for _, tpl := range watdiv.BasicTemplates() {
			if tpl.Name == "C3" {
				cacheFixQuery = tpl.Instantiate(data, rng) + " ORDER BY ?v0 LIMIT 100"
			}
		}
	})
	if cacheFixQuery == "" {
		b.Fatal("no C3 template in the basic workload")
	}
	return cacheFixStore, cacheFixQuery
}

func benchCacheServer(b *testing.B, cacheBytes int64, execs *atomic.Int64) *httptest.Server {
	b.Helper()
	st, _ := benchCacheFixture(b)
	opts := ServerOptions{
		MaxConcurrent:    4,
		CheapThreshold:   1,
		ResultCacheBytes: cacheBytes,
	}
	if execs != nil {
		opts.chaos = func(*http.Request) engine.Yielder { execs.Add(1); return nil }
	}
	srv := httptest.NewServer(NewHandler(st, opts))
	b.Cleanup(srv.Close)
	return srv
}

func benchGet(b *testing.B, srv *httptest.Server, q string) int {
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status = %d", resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return int(n)
}

// BenchmarkResultCacheCold serves the C3 query with caching disabled:
// every request pays planning, execution and serialization.
func BenchmarkResultCacheCold(b *testing.B) {
	_, q := benchCacheFixture(b)
	srv := benchCacheServer(b, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv, q)
	}
}

// BenchmarkResultCacheWarm serves the same query from the primed cache:
// every request is a hit, and the reported execs/op metric must be 0.
func BenchmarkResultCacheWarm(b *testing.B) {
	_, q := benchCacheFixture(b)
	var execs atomic.Int64
	srv := benchCacheServer(b, 64<<20, &execs)
	// Prime: first request misses and fills (one execution).
	benchGet(b, srv, q)
	execs.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, srv, q)
	}
	b.StopTimer()
	if got := execs.Load(); got != 0 {
		b.Fatalf("warm serving executed the engine %d times, want 0", got)
	}
	b.ReportMetric(0, "execs/op")
}
