// Package sched implements per-store query admission control and fair
// time-sliced scheduling. It sits between the HTTP mux (or CLI) and the
// query engine: every query is admitted into one bounded queue and granted
// one of the store's worker slots when one frees up, whatever its class.
// The cost gate (Classify, fed by the planner's cardinality estimates)
// decides only which queries are time-sliced: an expensive query carries a
// slice, the engine calls Ticket.Yield at its row-batch cancellation
// points, and a ticket whose slice has expired while other work is waiting
// releases its slot and re-enqueues, so N concurrent heavy queries make
// proportional progress and a point lookup waits at most one slice instead
// of a whole join. A cheap query is never sliced.
//
// Fairness uses virtual-time ordering (a simplified completely-fair
// scheduler): the scheduler keeps a virtual clock equal to the service time
// of the most-served dispatched ticket, new arrivals start at the current
// clock, and a yielding ticket's virtual time grows by the CPU slice it
// just consumed. The wait heap pops the smallest (vtime, seq) first, so a
// ticket that has waited while others ran ages into higher priority
// automatically, and a fresh short query jumps ahead of a long-runner
// without starving it.
package sched

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Class is the cost-gate verdict for one query.
type Class int

const (
	// Cheap queries (point lookups, small stars) run to completion once
	// granted a slot.
	Cheap Class = iota
	// Expensive queries (analytics, snowflakes, cross joins) are
	// time-sliced.
	Expensive
)

func (c Class) String() string {
	if c == Cheap {
		return "cheap"
	}
	return "expensive"
}

// DefaultCheapThreshold is the planner-estimated row count at or below
// which a query classifies as Cheap. The unit is the cost returned by
// core.CostEstimate.Cost(): the larger of total estimated scanned rows and
// the peak estimated intermediate-result size.
const DefaultCheapThreshold = 1000

// Classify applies the cost gate: queries whose estimated cost is at or
// below threshold are Cheap, everything else Expensive. threshold <= 0
// selects DefaultCheapThreshold.
func Classify(cost int, threshold int) Class {
	if threshold <= 0 {
		threshold = DefaultCheapThreshold
	}
	if cost <= threshold {
		return Cheap
	}
	return Expensive
}

// DefaultSlice is the execution time slice granted to expensive queries
// between yield points when none is configured.
const DefaultSlice = 20 * time.Millisecond

// epoch anchors the scheduler's monotonic clock; all internal timestamps
// are nanoseconds since this instant.
var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

// Options configures a Scheduler.
type Options struct {
	// MaxConcurrent is the worker-slot budget every class shares.
	// Defaults to GOMAXPROCS when <= 0.
	MaxConcurrent int
	// QueueDepth bounds the admission queue (tickets waiting for their
	// first slot grant; re-enqueued yields are not counted against it).
	// When every slot is busy and the queue is full, Admit rejects with
	// *QueueFullError. Defaults to max(16, 4*MaxConcurrent).
	QueueDepth int
	// Slice is the execution time slice for expensive queries. <= 0
	// selects DefaultSlice.
	Slice time.Duration
}

// QueueFullError is returned by Admit when the admission queue is at
// capacity. RetryAfter estimates when a slot is likely to free up, derived
// from the recent per-query service time.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("sched: admission queue full, retry after %s", e.RetryAfter)
}

// ticket states.
const (
	stateQueued int32 = iota
	stateRunning
	stateDone
)

// Ticket is one admitted query's handle on the scheduler. The holder must
// call Release exactly once when the query finishes (on any path,
// including errors and cancellation). Ticket implements engine.Yielder.
type Ticket struct {
	s      *Scheduler
	ctx    context.Context
	seq    uint64
	vtime  int64 // virtual service time, ns; heap priority
	sliced bool  // Expensive: each grant starts a slice

	// sliceEnd is the monotonic deadline (ns since epoch) of the current
	// slice; read lock-free on the Yield fast path. 0 means "no slicing"
	// (a cheap ticket).
	sliceEnd atomic.Int64

	enqueuedAt int64 // ns since epoch of the current enqueue
	grantedAt  int64 // ns since epoch of the last slot grant

	state  int32         // guarded by s.mu
	index  int           // heap index while queued; -1 otherwise
	grant  chan struct{} // closed when a slot is granted
	waited time.Duration // cumulative admission + re-enqueue wait
	yields int           // completed yield round-trips

	released bool // Release called; guarded by s.mu
}

// QueueWait reports the total time the ticket has spent waiting for a slot
// (initial admission plus any re-enqueues after yielding). It takes the
// scheduler lock: the owner may ask while the ticket is still re-queued
// from a yield (its query died waiting), racing a concurrent grant that
// folds the current wait into the total.
func (t *Ticket) QueueWait() time.Duration {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.waited
}

// Yields reports how many times the ticket gave up its slot and re-queued.
// Locked for the same reason as QueueWait.
func (t *Ticket) Yields() int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.yields
}

// Scheduler is one store's admission controller: one slot pool, one wait
// heap and one bounded admission queue shared by every class. All state is
// guarded by a single mutex; the only lock-free path is the Yield slice
// check.
type Scheduler struct {
	mu    sync.Mutex
	slice time.Duration
	seq   uint64

	slots int
	free  int

	waiting    waitHeap // queued tickets (admission waiters + re-enqueued yielders)
	admitQueue int      // admission waiters only, bounded by queueDepth
	queueDepth int

	vclock int64 // virtual clock: max vtime among dispatched tickets

	// ewmaActive is an exponentially-weighted moving average of per-grant
	// slot hold time, used for the Retry-After estimate. 0 = no samples.
	ewmaActive int64

	// counters (monotonic)
	admitted  int64
	rejected  int64
	abandoned int64 // gave up while queued (ctx done / disconnect)
	started   int64
	completed int64
	yields    int64
}

// New builds a Scheduler from opts (see Options for defaulting rules).
func New(opts Options) *Scheduler {
	slots := opts.MaxConcurrent
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = max(16, 4*slots)
	}
	slice := opts.Slice
	if slice <= 0 {
		slice = DefaultSlice
	}
	return &Scheduler{slice: slice, slots: slots, free: slots, queueDepth: depth}
}

// Admit requests a worker slot for a query of the given class. It blocks
// until a slot is granted, the context is done, or — immediately — the
// admission queue is full, in which case it returns a *QueueFullError
// carrying a Retry-After estimate. A ticket whose context ends while
// queued is removed from the queue without ever executing and its slot
// demand vanishes (the disconnect-releases-slot property). The class only
// decides whether the ticket is time-sliced.
func (s *Scheduler) Admit(ctx context.Context, class Class) (*Ticket, error) {
	s.mu.Lock()
	if s.free == 0 && s.admitQueue >= s.queueDepth {
		s.rejected++
		ra := s.retryAfterLocked()
		s.mu.Unlock()
		return nil, &QueueFullError{RetryAfter: ra}
	}
	s.seq++
	t := &Ticket{
		s:      s,
		ctx:    ctx,
		seq:    s.seq,
		sliced: class == Expensive,
		// enqueuedAt is stamped even on the immediate-grant path below:
		// a fresh ticket's zero state is stateQueued, so grantLocked
		// accumulates now-enqueuedAt into the queue wait either way.
		enqueuedAt: nowNanos(),
		vtime:      s.vclock,
		index:      -1,
		grant:      make(chan struct{}),
	}
	s.admitted++
	if s.free > 0 {
		s.grantLocked(t)
		s.mu.Unlock()
		return t, nil
	}
	t.state = stateQueued
	s.admitQueue++
	heap.Push(&s.waiting, t)
	s.mu.Unlock()

	select {
	case <-t.grant:
		return t, nil
	case <-ctx.Done():
	}
	// Context ended. The grant may have raced the cancellation: prefer the
	// grant if it already happened, otherwise withdraw from the queue.
	s.mu.Lock()
	select {
	case <-t.grant:
		s.mu.Unlock()
		return t, nil
	default:
	}
	heap.Remove(&s.waiting, t.index)
	s.admitQueue--
	s.abandoned++
	t.state = stateDone
	t.released = true
	s.mu.Unlock()
	return nil, ctx.Err()
}

// grantLocked hands a free slot to t. Caller holds s.mu.
func (s *Scheduler) grantLocked(t *Ticket) {
	s.free--
	now := nowNanos()
	if t.state == stateQueued {
		t.waited += time.Duration(now - t.enqueuedAt)
	}
	if t.grantedAt == 0 { // first grant: the query starts executing
		s.started++
	}
	t.state = stateRunning
	t.grantedAt = now
	if s.vclock < t.vtime {
		s.vclock = t.vtime
	}
	if t.sliced {
		t.sliceEnd.Store(now + int64(s.slice))
	}
	close(t.grant)
}

// dispatchLocked grants freed slots to the highest-priority waiters.
func (s *Scheduler) dispatchLocked() {
	for s.free > 0 && s.waiting.Len() > 0 {
		t := heap.Pop(&s.waiting).(*Ticket)
		if t.yields == 0 {
			s.admitQueue--
		}
		s.grantLocked(t)
	}
}

// retryAfterLocked estimates how long a rejected client should wait before
// retrying: (queue length + 1) service times spread across the slots,
// clamped to [1s, 60s].
func (s *Scheduler) retryAfterLocked() time.Duration {
	per := time.Duration(s.ewmaActive)
	if per == 0 {
		per = time.Second
	}
	est := time.Duration(s.admitQueue+1) * per / time.Duration(s.slots)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Yield is the engine-facing pacing hook (engine.Yielder). Cheap tickets
// and unexpired slices return immediately via a lock-free check. An
// expensive ticket whose slice has expired releases its slot, re-enqueues
// behind anyone with less virtual service time, and blocks until
// re-granted or its context ends (in which case it returns so the engine
// can observe cancellation and unwind).
func (t *Ticket) Yield() {
	end := t.sliceEnd.Load()
	if end == 0 || nowNanos() < end {
		return
	}
	t.yieldSlow()
}

func (t *Ticket) yieldSlow() {
	s := t.s
	s.mu.Lock()
	if t.state != stateRunning || t.released {
		// Raced with Release or a concurrent yielder from another
		// partition goroutine of the same query; nothing to do.
		s.mu.Unlock()
		return
	}
	now := nowNanos()
	if now < t.sliceEnd.Load() {
		// Another goroutine of this query already yielded and the ticket
		// was re-granted with a fresh slice.
		s.mu.Unlock()
		return
	}
	held := now - t.grantedAt
	t.vtime += held
	s.observeActiveLocked(held)
	if s.waiting.Len() == 0 {
		// Nobody is waiting: keep the slot and just start a new slice.
		t.grantedAt = now
		t.sliceEnd.Store(now + int64(s.slice))
		s.mu.Unlock()
		return
	}
	// Give up the slot and rejoin the wait heap at our new virtual time.
	s.yields++
	t.yields++
	t.state = stateQueued
	t.enqueuedAt = now
	t.grant = make(chan struct{})
	s.free++
	heap.Push(&s.waiting, t)
	s.dispatchLocked()
	grant := t.grant
	s.mu.Unlock()

	select {
	case <-grant:
	case <-t.ctx.Done():
		// Return with the ticket still queued; the engine will see the
		// cancelled context and unwind to Release, which dequeues it.
	}
}

// observeActiveLocked folds one slot-hold duration into the EWMA.
func (s *Scheduler) observeActiveLocked(held int64) {
	if s.ewmaActive == 0 {
		s.ewmaActive = held
	} else {
		s.ewmaActive = (7*s.ewmaActive + held) / 8
	}
}

// Release returns the ticket's slot and dispatches the next waiter. It is
// idempotent and must be called exactly once per admitted ticket on every
// exit path.
func (t *Ticket) Release() {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.released {
		return
	}
	t.released = true
	switch t.state {
	case stateRunning:
		held := nowNanos() - t.grantedAt
		t.vtime += held
		s.observeActiveLocked(held)
		s.free++
		s.completed++
		t.state = stateDone
		s.dispatchLocked()
	case stateQueued:
		// The query unwound while re-queued after a cancelled yield wait:
		// it never got (back) the slot, so only remove it from the heap.
		heap.Remove(&s.waiting, t.index)
		if t.yields == 0 {
			s.admitQueue--
		}
		s.completed++
		t.state = stateDone
	}
}

// Stats is a point-in-time snapshot of the scheduler's gauges and
// counters.
type Stats struct {
	Slots     int   `json:"slots"`
	Running   int   `json:"running"`
	Queued    int   `json:"queued"`  // admission waiters (bounded by QueueDepth)
	Waiting   int   `json:"waiting"` // admission waiters + re-enqueued yielders
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Abandoned int64 `json:"abandoned"`
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Yields    int64 `json:"yields"`
}

// Stats returns a consistent snapshot of the gauges and counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Slots:     s.slots,
		Running:   s.slots - s.free,
		Queued:    s.admitQueue,
		Waiting:   s.waiting.Len(),
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Abandoned: s.abandoned,
		Started:   s.started,
		Completed: s.completed,
		Yields:    s.yields,
	}
}

// waitHeap orders tickets by (virtual time, arrival sequence).
type waitHeap []*Ticket

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].vtime != h[j].vtime {
		return h[i].vtime < h[j].vtime
	}
	return h[i].seq < h[j].seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waitHeap) Push(x any) {
	t := x.(*Ticket)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *waitHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
