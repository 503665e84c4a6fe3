package main

import (
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects one client's observations; clients never share one.
type recorder struct {
	latMs, ttfbMs, lagMs []float64
	rows, bytes          int64
	attempted, failed    int
	failReasons          map[string]int
	headers              []http.Header // traced runs only
}

func (rec *recorder) add(r reply, lag time.Duration) {
	rec.attempted++
	if r.header != nil {
		rec.headers = append(rec.headers, r.header)
	}
	if r.fail != "" {
		rec.failed++
		if rec.failReasons == nil {
			rec.failReasons = make(map[string]int)
		}
		rec.failReasons[r.fail]++
		return
	}
	rec.latMs = append(rec.latMs, ms(r.latency))
	rec.ttfbMs = append(rec.ttfbMs, ms(r.ttfb))
	rec.lagMs = append(rec.lagMs, ms(lag))
	rec.rows += r.rows
	rec.bytes += r.bytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is the merged record of one timed window.
type window struct {
	recorder
	elapsed time.Duration
}

func merge(recs []recorder, elapsed time.Duration) window {
	w := window{elapsed: elapsed}
	w.failReasons = make(map[string]int)
	for i := range recs {
		r := &recs[i]
		w.latMs = append(w.latMs, r.latMs...)
		w.ttfbMs = append(w.ttfbMs, r.ttfbMs...)
		w.lagMs = append(w.lagMs, r.lagMs...)
		w.headers = append(w.headers, r.headers...)
		w.rows += r.rows
		w.bytes += r.bytes
		w.attempted += r.attempted
		w.failed += r.failed
		for k, n := range r.failReasons {
			w.failReasons[k] += n
		}
	}
	sort.Float64s(w.latMs)
	sort.Float64s(w.ttfbMs)
	sort.Float64s(w.lagMs)
	return w
}

// absorb folds another window into w (load_open adds up its cycles).
func (w *window) absorb(o window) {
	*w = merge([]recorder{w.recorder, o.recorder}, w.elapsed+o.elapsed)
}

// next returns the query at cur — the position in the set's request
// sequence, shared by all clients of a run across warm-up and timed window —
// for a fixed-pool set, or a fresh instantiation drawn from the client's own
// generator.
func (qs *querySet) next(cur *atomic.Int64, rng *rand.Rand) query {
	if qs.fresh != nil {
		return newQuery(qs.fresh[rng.Intn(len(qs.fresh))], qs.data, rng, "")
	}
	i := cur.Add(1) - 1
	return qs.pool[qs.seq[i%int64(len(qs.seq))]]
}

// closedLoop keeps each client sending its next query as soon as the
// previous reply is complete, for d (or, when limit > 0, until limit
// requests were sent in total). It returns after every client has finished
// its last request; elapsed runs to that moment, so no reply is counted
// against time it did not use.
func closedLoop(clients []*client, qs *querySet, cur *atomic.Int64, d time.Duration, limit int64, keepHeaders bool) window {
	recs := make([]recorder, len(clients))
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for {
				if limit > 0 {
					if sent.Add(1) > limit {
						return
					}
				} else if time.Since(start) >= d {
					return
				}
				q := qs.next(cur, c.rng)
				recs[i].add(c.do(&q, time.Now(), keepHeaders), 0)
			}
		}(i, c)
	}
	wg.Wait()
	return merge(recs, time.Since(start))
}

// openLoop sends the set's request sequence on a schedule: request k is due
// at start+due[k] whether or not earlier replies are back, and its latency
// is measured from that due time, so a stall is charged to every request it
// delays. The clients take requests off the schedule in order, each sending
// when its request falls due (or at once if that moment has passed); lag is
// how late the send ran. Requests due before warm are sent but not recorded.
func openLoop(clients []*client, qs *querySet, due []float64, warm, span time.Duration, keepHeaders bool) window {
	recs := make([]recorder, len(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(len(due)) {
					return
				}
				offset := time.Duration(due[k] * float64(time.Second))
				if offset >= warm+span {
					return
				}
				at := start.Add(offset)
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				lag := time.Since(at)
				q := qs.pool[qs.seq[k%int64(len(qs.seq))]]
				r := c.do(&q, at, keepHeaders)
				if offset >= warm {
					recs[i].add(r, lag)
				}
			}
		}(i, c)
	}
	wg.Wait()
	// Elapsed runs from the end of the warm-up to the last reply: a server
	// that keeps up ends with the schedule, one that does not runs past it
	// and the backlog counts against throughput.
	elapsed := time.Since(start) - warm
	return merge(recs, elapsed)
}
