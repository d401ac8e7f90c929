package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gqa/internal/obs"
)

// admit is a test helper asserting Admit succeeds.
func admit(t *testing.T, c *Controller, client string) *Ticket {
	t.Helper()
	tk, err := c.Admit(context.Background(), client)
	if err != nil {
		t.Fatalf("Admit(%q): %v", client, err)
	}
	return tk
}

// rejectReason asserts Admit fails with a *RejectError of the given
// reason and returns it.
func rejectReason(t *testing.T, err error, reason string) *RejectError {
	t.Helper()
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("error %v (%T), want *RejectError", err, err)
	}
	if rej.Reason != reason {
		t.Fatalf("reject reason %q, want %q", rej.Reason, reason)
	}
	return rej
}

// TestGateNeverExceeded: under heavy concurrent admission the number of
// simultaneously held tickets never exceeds MaxInFlight, and with a large
// enough queue nobody is rejected. Run with -race.
func TestGateNeverExceeded(t *testing.T) {
	const gate, callers = 4, 64
	c := New(Config{MaxInFlight: gate, MaxQueue: callers})
	var cur, peak, admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := c.Admit(context.Background(), "")
			if err != nil {
				t.Errorf("Admit: %v", err)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			admitted.Add(1)
			tk.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > gate {
		t.Fatalf("peak in-flight %d exceeds gate %d", p, gate)
	}
	if a := admitted.Load(); a != callers {
		t.Fatalf("admitted %d, want %d", a, callers)
	}
	if c.InFlight() != 0 || c.QueueDepth() != 0 {
		t.Fatalf("controller not drained: inflight=%d queue=%d", c.InFlight(), c.QueueDepth())
	}
}

// TestQueueFIFO: waiters are granted slots in arrival order.
func TestQueueFIFO(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 8})
	holder := admit(t, c, "")

	order := make(chan int, 2)
	enqueue := func(id int) {
		go func() {
			tk, err := c.Admit(context.Background(), "")
			if err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			order <- id
			tk.Release()
		}()
		waitFor(t, func() bool { return c.QueueDepth() == id })
	}
	enqueue(1)
	enqueue(2)

	holder.Release()
	if first := <-order; first != 1 {
		t.Fatalf("first grant went to waiter %d, want 1", first)
	}
	if second := <-order; second != 2 {
		t.Fatalf("second grant went to waiter %d, want 2", second)
	}
}

// TestQueueFullReject: a full queue rejects immediately with queue-full
// and a positive Retry-After hint once a service time is known.
func TestQueueFullReject(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 2})
	c.svc.observe(10 * time.Millisecond) // a known p50 before any request completes
	holder := admit(t, c, "")
	defer holder.Release()
	results := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func() {
			tk, err := c.Admit(context.Background(), "")
			if err == nil {
				tk.Release()
			}
			results <- err
		}()
		waitFor(t, func() bool { return c.QueueDepth() == i })
	}
	_, err := c.Admit(context.Background(), "")
	rej := rejectReason(t, err, ReasonQueueFull)
	if rej.RetryAfter <= 0 {
		t.Fatalf("queue-full RetryAfter = %v, want > 0", rej.RetryAfter)
	}
	c.Drain() // unblock the two queued waiters
	for i := 0; i < 2; i++ {
		rejectReason(t, <-results, ReasonDraining)
	}
}

// TestDeadlineDoomedAtEnqueue: with a seeded p50 of 50ms, a request that
// would have to queue but only has 10ms of deadline left is rejected
// up front — it could never finish in time.
func TestDeadlineDoomedAtEnqueue(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 8})
	c.svc.observe(50 * time.Millisecond) // a known p50 before any request completes
	holder := admit(t, c, "")
	defer holder.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := c.Admit(ctx, "")
	rejectReason(t, err, ReasonDeadline)
	if c.QueueDepth() != 0 {
		t.Fatalf("doomed request left queue depth %d, want 0", c.QueueDepth())
	}
}

// TestDeadlineDoomedAtDispatch: a request healthy at enqueue time whose
// deadline decayed below p50 while it waited is rejected when its turn
// comes, without ever holding a slot.
func TestDeadlineDoomedAtDispatch(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 8})
	c.svc.observe(60 * time.Millisecond) // a known p50 before any request completes
	holder := admit(t, c, "")

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	result := make(chan error, 1)
	go func() {
		tk, err := c.Admit(ctx, "")
		if err == nil {
			tk.Release()
		}
		result <- err
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })

	// Let the remaining deadline decay below the 60ms p50, then free the
	// slot: dispatch must reject rather than grant.
	time.Sleep(60 * time.Millisecond)
	holder.Release()
	rejectReason(t, <-result, ReasonDeadline)
	if got := c.InFlight(); got != 0 {
		t.Fatalf("doomed waiter consumed a slot: inflight=%d", got)
	}
}

// TestAbandonedWaiterLeavesQueue: a context canceled while queued returns
// a canceled rejection and frees its queue entry.
func TestAbandonedWaiterLeavesQueue(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 8})
	holder := admit(t, c, "")

	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		tk, err := c.Admit(ctx, "")
		if err == nil {
			tk.Release()
		}
		result <- err
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	cancel()
	rejectReason(t, <-result, ReasonCanceled)
	waitFor(t, func() bool { return c.QueueDepth() == 0 })

	// The abandoned entry must not absorb the next grant.
	next := make(chan *Ticket, 1)
	go func() {
		tk := admit(t, c, "")
		next <- tk
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	holder.Release()
	(<-next).Release()
}

// TestClientRateFairness: the hot client is shed first — its bucket
// empties and it collects client-rate rejections with a Retry-After hint
// while a quiet client keeps being admitted.
func TestClientRateFairness(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Config{MaxInFlight: 16, MaxQueue: 16, ClientQPS: 1, ClientBurst: 2})
	c.now = clock

	// Burst capacity: two admissions, then the hot client is rejected.
	admit(t, c, "hot").Release()
	admit(t, c, "hot").Release()
	_, err := c.Admit(context.Background(), "hot")
	rej := rejectReason(t, err, ReasonClientRate)
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Fatalf("client-rate RetryAfter = %v, want in (0, 1s]", rej.RetryAfter)
	}

	// The quiet client is unaffected by the hot client's bucket.
	admit(t, c, "quiet").Release()

	// One second later the hot client has earned one token back.
	now = now.Add(time.Second)
	admit(t, c, "hot").Release()
	_, err = c.Admit(context.Background(), "hot")
	rejectReason(t, err, ReasonClientRate)
}

// TestRejectErrorNamesReasonAndRetry: a rejection's message names its
// reason, and its Retry-After hint when it has one: a hot client's
// client-rate rejection says when to come back, a draining server's says
// nothing of retrying.
func TestRejectErrorNamesReasonAndRetry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Config{MaxInFlight: 4, MaxQueue: 4, ClientQPS: 2, ClientBurst: 1})
	c.now = func() time.Time { return now }
	admit(t, c, "hot").Release()
	_, err := c.Admit(context.Background(), "hot")
	rej := rejectReason(t, err, ReasonClientRate)
	if want := "admission: rejected (client-rate), retry after 500ms"; err.Error() != want || rej.RetryAfter != 500*time.Millisecond {
		t.Errorf("client-rate rejection reads %q, want %q", err, want)
	}
	c.Drain()
	_, err = c.Admit(context.Background(), "")
	rejectReason(t, err, ReasonDraining)
	if want := "admission: rejected (draining)"; err.Error() != want {
		t.Errorf("draining rejection reads %q, want %q", err, want)
	}
}

// TestShedTiersRiseAndRestore: tiers grade up with occupancy and return
// to zero once the pressure subsides.
func TestShedTiersRiseAndRestore(t *testing.T) {
	// Capacity 16 (4 slots + 12 queue): tier thresholds at 4, 8, and 12
	// outstanding requests.
	c := New(Config{MaxInFlight: 4, MaxQueue: 12})

	t1 := admit(t, c, "")
	if got := t1.Tier(); got != 0 {
		t.Fatalf("first admission tier = %d, want 0", got)
	}
	t2, t3 := admit(t, c, ""), admit(t, c, "")
	t4 := admit(t, c, "") // 4/16 outstanding = 25% → tier 1
	if got := t4.Tier(); got != 1 {
		t.Fatalf("gate-full admission tier = %d, want 1", got)
	}

	// Deepen the queue to 8 waiters: 12/16 = 75% → tier 3 grants.
	tiers := make(chan int, 8)
	for i := 1; i <= 8; i++ {
		go func() {
			tk, err := c.Admit(context.Background(), "")
			if err != nil {
				t.Errorf("queued admit: %v", err)
				tiers <- -1
				return
			}
			tiers <- tk.Tier()
			tk.Release()
		}()
		waitFor(t, func() bool { return c.QueueDepth() == i })
	}
	peak := 0
	t1.Release()
	for i := 0; i < 8; i++ {
		if tier := <-tiers; tier > peak {
			peak = tier
		}
	}
	if peak < 2 {
		t.Fatalf("peak granted tier = %d, want >= 2 under a deep queue", peak)
	}

	// Pressure gone: the next admission is tier 0 again.
	t2.Release()
	t3.Release()
	t4.Release()
	waitFor(t, func() bool { return c.InFlight() == 0 && c.QueueDepth() == 0 })
	calm := admit(t, c, "")
	if got := calm.Tier(); got != 0 {
		t.Fatalf("post-pressure tier = %d, want 0", got)
	}
	calm.Release()
}

// TestDrainRejectsEverything: draining rejects queued waiters and all
// future admissions, while in-flight tickets release normally.
func TestDrainRejectsEverything(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 8})
	holder := admit(t, c, "")
	queued := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), "")
		if err == nil {
			tk.Release()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })

	c.Drain()
	rejectReason(t, <-queued, ReasonDraining)
	_, err := c.Admit(context.Background(), "")
	rejectReason(t, err, ReasonDraining)
	holder.Release() // must not panic or deadlock after drain
	if c.InFlight() != 0 {
		t.Fatalf("inflight = %d after release, want 0", c.InFlight())
	}
}

// TestReleaseIdempotent: double Release frees the slot exactly once.
func TestReleaseIdempotent(t *testing.T) {
	c := New(Config{MaxInFlight: 2, MaxQueue: 2})
	tk := admit(t, c, "")
	tk.Release()
	tk.Release()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("inflight = %d after double release, want 0", got)
	}
}

// TestMetricsPreRegistered: every admission series renders in the
// Prometheus exposition with its closed label set even before traffic,
// keeping the scrape surface golden-stable.
func TestMetricsPreRegistered(t *testing.T) {
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		`gqa_admission_admitted_total`,
		`gqa_admission_rejected_total{reason="canceled"}`,
		`gqa_admission_rejected_total{reason="client-rate"}`,
		`gqa_admission_rejected_total{reason="deadline"}`,
		`gqa_admission_rejected_total{reason="draining"}`,
		`gqa_admission_rejected_total{reason="queue-full"}`,
		`gqa_admission_shed_total{tier="1"}`,
		`gqa_admission_shed_total{tier="2"}`,
		`gqa_admission_shed_total{tier="3"}`,
		`gqa_admission_inflight`,
		`gqa_admission_queue_depth`,
		`gqa_admission_queue_wait_seconds_count`,
	} {
		if !strings.Contains(out, series+" ") {
			t.Errorf("exposition missing pre-registered series %s", series)
		}
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
