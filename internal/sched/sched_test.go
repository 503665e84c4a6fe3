package sched

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedClassifyBoundary pins the cost-gate boundary arithmetic: at the
// threshold is cheap, one past it expensive, and 0 selects the default.
func TestSchedClassifyBoundary(t *testing.T) {
	cases := []struct {
		cost, threshold int
		want            Class
	}{
		{0, 0, Cheap},
		{DefaultCheapThreshold, 0, Cheap},
		{DefaultCheapThreshold + 1, 0, Expensive},
		{50, 49, Expensive},
		{50, 50, Cheap},
		{1, -7, Cheap}, // negative threshold falls back to the default
	}
	for _, c := range cases {
		if got := Classify(c.cost, c.threshold); got != c.want {
			t.Errorf("Classify(%d, %d) = %v, want %v", c.cost, c.threshold, got, c.want)
		}
	}
}

// TestSchedClassesShareOnePool checks that every class draws on the same
// slot pool: at MaxConcurrent 2 two expensive tickets both run without
// waiting, and a third ticket of either class queues until one of them
// releases its slot.
func TestSchedClassesShareOnePool(t *testing.T) {
	s := New(Options{MaxConcurrent: 2})
	admit := func(c Class) <-chan *Ticket {
		ch := make(chan *Ticket, 1)
		go func() {
			tk, err := s.Admit(context.Background(), c)
			if err != nil {
				t.Error(err)
			}
			ch <- tk
		}()
		return ch
	}
	for _, third := range []Class{Cheap, Expensive} {
		var running []*Ticket
		for i := 0; i < 2; i++ {
			select {
			case tk := <-admit(Expensive):
				running = append(running, tk)
			case <-time.After(2 * time.Second):
				t.Fatalf("expensive ticket %d not granted with a slot free", i+1)
			}
		}
		if st := s.Stats(); st.Running != 2 || st.Queued != 0 {
			t.Fatalf("two expensive tickets: %+v, want running=2 queued=0", st)
		}
		granted := admit(third)
		waitFor(t, func() bool { return s.Stats().Queued == 1 })
		select {
		case <-granted:
			t.Fatalf("%v ticket granted with both slots busy", third)
		case <-time.After(30 * time.Millisecond):
		}
		running[0].Release()
		select {
		case tk := <-granted:
			tk.Release()
		case <-time.After(2 * time.Second):
			t.Fatalf("queued %v ticket not granted after Release", third)
		}
		running[1].Release()
	}
	if st := s.Stats(); st.Running != 0 || st.Queued != 0 || st.Started != 6 || st.Completed != 6 {
		t.Errorf("after both rounds: %+v, want running=0 queued=0 started=completed=6", st)
	}
}

// TestSchedCheapOvertakesYielder is the unit-level starvation case: with
// every slot held by an expensive ticket, a cheap admission waits only
// until the next yield. It arrives at the virtual clock, while the yielder
// re-queues at the clock plus the slice it just used, so the cheap ticket
// takes the freed slot ahead of the yielder.
func TestSchedCheapOvertakesYielder(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, Slice: time.Millisecond})
	ctx := context.Background()
	var heavy []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := s.Admit(ctx, Expensive)
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, tk)
	}
	cheapc := make(chan *Ticket, 1)
	go func() {
		tk, err := s.Admit(ctx, Cheap)
		if err != nil {
			t.Error(err)
		}
		cheapc <- tk
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	time.Sleep(2 * time.Millisecond) // the slices run out
	yielded := make(chan struct{})
	go func() {
		heavy[0].Yield()
		close(yielded)
	}()
	var cheap *Ticket
	select {
	case cheap = <-cheapc:
	case <-time.After(2 * time.Second):
		t.Fatal("cheap ticket not granted at the yield")
	}
	select {
	case <-yielded:
		t.Fatal("yielder re-granted ahead of the cheap ticket")
	case <-time.After(30 * time.Millisecond):
	}
	if st := s.Stats(); st.Running != 2 || st.Waiting != 1 || st.Yields != 1 {
		t.Errorf("cheap running beside the other heavy ticket: %+v, want running=2 waiting=1 yields=1", st)
	}
	cheap.Release()
	select {
	case <-yielded:
	case <-time.After(2 * time.Second):
		t.Fatal("yielder not re-granted after the cheap ticket's release")
	}
	heavy[0].Release()
	heavy[1].Release()
	if st := s.Stats(); st.Running != 0 || st.Waiting != 0 || st.Completed != 3 {
		t.Errorf("gauges not drained: %+v", st)
	}
}

// TestSchedAdmitAndRelease admits up to the slot budget without blocking
// and checks Release frees the slot for the next waiter.
func TestSchedAdmitAndRelease(t *testing.T) {
	s := New(Options{MaxConcurrent: 2})
	ctx := context.Background()

	t1, err := s.Admit(ctx, Cheap)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Admit(ctx, Cheap)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Running; got != 2 {
		t.Fatalf("running = %d, want 2", got)
	}

	// Third admit must queue until a slot frees.
	granted := make(chan *Ticket)
	go func() {
		tk, err := s.Admit(ctx, Cheap)
		if err != nil {
			t.Error(err)
		}
		granted <- tk
	}()
	select {
	case <-granted:
		t.Fatal("third admit granted with both slots busy")
	case <-time.After(30 * time.Millisecond):
	}
	t1.Release()
	var t3 *Ticket
	select {
	case t3 = <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("queued admit not granted after Release")
	}
	if t3.QueueWait() <= 0 {
		t.Error("queued ticket reports zero queue wait")
	}
	t2.Release()
	t3.Release()
	t3.Release() // idempotent

	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 || st.Waiting != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
	if st.Admitted != 3 || st.Started != 3 || st.Completed != 3 {
		t.Errorf("counters: %+v, want admitted/started/completed = 3", st)
	}
}

// TestSchedBackpressureRejectsWhenFull fills the slot and the queue and
// checks the next admit fails fast with a QueueFullError carrying a
// clamped Retry-After.
func TestSchedBackpressureRejectsWhenFull(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueDepth: 1})
	ctx := context.Background()

	running, err := s.Admit(ctx, Expensive)
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(ctx)
	queuedErr := make(chan error, 1)
	go func() {
		tk, err := s.Admit(qctx, Expensive)
		if tk != nil {
			tk.Release()
		}
		queuedErr <- err
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	_, err = s.Admit(ctx, Expensive)
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("admit on full queue: err = %v, want *QueueFullError", err)
	}
	if full.RetryAfter < time.Second || full.RetryAfter > time.Minute {
		t.Errorf("RetryAfter = %v, want within [1s, 60s]", full.RetryAfter)
	}

	// A queued client that disconnects releases its place without ever
	// executing.
	qcancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned admit: err = %v, want context.Canceled", err)
	}
	running.Release()

	st := s.Stats()
	if st.Rejected != 1 || st.Abandoned != 1 || st.Started != 1 || st.Completed != 1 {
		t.Errorf("counters: %+v, want rejected=1 abandoned=1 started=1 completed=1", st)
	}
	if st.Running != 0 || st.Queued != 0 || st.Waiting != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
}

// TestSchedYieldRotatesSlot checks the fairness mechanism: a running
// expensive ticket whose slice expired hands its slot to a waiter and
// re-queues; the waiter's release hands the slot back.
func TestSchedYieldRotatesSlot(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Slice: time.Nanosecond})
	ctx := context.Background()

	t1, err := s.Admit(ctx, Expensive)
	if err != nil {
		t.Fatal(err)
	}
	t2c := make(chan *Ticket)
	go func() {
		tk, err := s.Admit(ctx, Expensive)
		if err != nil {
			t.Error(err)
		}
		t2c <- tk
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	// The 1ns slice is long expired: Yield must block t1 and grant t2.
	yielded := make(chan struct{})
	go func() {
		t1.Yield()
		close(yielded)
	}()
	var t2 *Ticket
	select {
	case t2 = <-t2c:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not granted by yield")
	}
	select {
	case <-yielded:
		t.Fatal("yielder returned while the slot belongs to the waiter")
	case <-time.After(30 * time.Millisecond):
	}
	t2.Release()
	select {
	case <-yielded:
	case <-time.After(2 * time.Second):
		t.Fatal("yielder not re-granted after waiter release")
	}
	if t1.Yields() != 1 {
		t.Errorf("t1.Yields() = %d, want 1", t1.Yields())
	}
	t1.Release()

	st := s.Stats()
	if st.Yields != 1 || st.Running != 0 || st.Waiting != 0 {
		t.Errorf("after rotation: %+v", st)
	}
}

// TestSchedYieldKeepsSlotWhenIdle checks the no-waiter fast path: an
// expired slice with nobody queued keeps the slot and just renews the
// slice — no pointless re-queue round trip.
func TestSchedYieldKeepsSlotWhenIdle(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, Slice: time.Nanosecond})
	tk, err := s.Admit(context.Background(), Expensive)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		tk.Yield()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("idle yield blocked")
	}
	if tk.Yields() != 0 {
		t.Errorf("idle yield counted as slot rotation: Yields() = %d", tk.Yields())
	}
	if got := s.Stats().Running; got != 1 {
		t.Errorf("running = %d after idle yield, want 1", got)
	}
	tk.Release()
}

// TestSchedYieldReturnsOnCancel checks a yielding query whose context dies
// while re-queued unblocks (so the engine can observe cancellation) and
// its eventual Release drains the queue entry.
func TestSchedYieldReturnsOnCancel(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, Slice: time.Nanosecond})
	ctx, cancel := context.WithCancel(context.Background())
	t1, err := s.Admit(ctx, Expensive)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the slot with a competitor so t1's yield truly re-queues.
	t2c := make(chan *Ticket)
	go func() {
		tk, _ := s.Admit(context.Background(), Expensive)
		t2c <- tk
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	yielded := make(chan struct{})
	go func() {
		t1.Yield()
		close(yielded)
	}()
	t2 := <-t2c
	cancel() // the client goes away while t1 waits for its slot back
	select {
	case <-yielded:
	case <-time.After(2 * time.Second):
		t.Fatal("yield did not return after context cancellation")
	}
	t1.Release()
	t2.Release()

	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 || st.Waiting != 0 {
		t.Errorf("gauges not drained after cancelled yield: %+v", st)
	}
	if st.Started != 2 || st.Completed != 2 {
		t.Errorf("counters after cancelled yield: %+v", st)
	}
}

// TestSchedRandomizedInvariants is the satellite stress test: hundreds of
// mixed cheap/expensive admissions across goroutines with random yields,
// cancellations and timeouts. Every admission must terminate with exactly
// one of (ran, context error, queue-full rejection), and afterwards the
// in-flight and queue gauges must be zero with consistent counters.
func TestSchedRandomizedInvariants(t *testing.T) {
	s := New(Options{MaxConcurrent: 4, QueueDepth: 8, Slice: 100 * time.Microsecond})
	const (
		workers = 16
		ops     = 600
	)
	var ran, ctxErr, rejected, outcomes atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				if next.Add(1) > ops {
					return
				}
				class := Cheap
				if rng.Intn(2) == 0 {
					class = Expensive
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				switch rng.Intn(3) {
				case 0: // random tight timeout: may die queued or mid-run
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2000))*time.Microsecond)
				case 1: // random explicit cancellation
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
					defer timer.Stop()
				}
				tk, err := s.Admit(ctx, class)
				switch {
				case err == nil:
					// Simulate row batches: spin a little, yielding like the
					// engine's cancellation points do, until done or cancelled.
					spins := rng.Intn(4)
					for i := 0; i < spins && ctx.Err() == nil; i++ {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
						tk.Yield()
					}
					tk.Release()
					ran.Add(1)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					ctxErr.Add(1)
				default:
					var full *QueueFullError
					if !errors.As(err, &full) {
						t.Errorf("unexpected admit error: %v", err)
						return
					}
					rejected.Add(1)
				}
				outcomes.Add(1)
				cancel()
			}
		}(int64(w) * 7919)
	}
	wg.Wait()

	if got := outcomes.Load(); got != ops {
		t.Fatalf("outcomes = %d, want exactly %d (one per admission attempt)", got, ops)
	}
	if ran.Load()+ctxErr.Load()+rejected.Load() != ops {
		t.Fatalf("outcome sum %d+%d+%d != %d", ran.Load(), ctxErr.Load(), rejected.Load(), ops)
	}
	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 || st.Waiting != 0 {
		t.Errorf("gauges not zero after storm: %+v", st)
	}
	if st.Admitted != st.Started+st.Abandoned {
		t.Errorf("admitted %d != started %d + abandoned %d", st.Admitted, st.Started, st.Abandoned)
	}
	if st.Started != st.Completed {
		t.Errorf("started %d != completed %d", st.Started, st.Completed)
	}
	if st.Started != ran.Load() {
		t.Errorf("started %d != tickets that ran %d", st.Started, ran.Load())
	}
	if st.Rejected != rejected.Load() {
		t.Errorf("rejected %d != rejections observed %d", st.Rejected, rejected.Load())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
