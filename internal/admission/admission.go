// Package admission implements overload protection for the serving front
// end. The answering pipeline survives one pathological question via
// budgets (internal/budget) and repeated questions via the answer cache
// (internal/qcache); this package protects the process from many
// simultaneous well-formed questions — the load regime where an unbounded
// accept loop queues work faster than it drains and latency tips over.
//
// Three mechanisms compose:
//
//   - A bounded in-flight gate: at most MaxInFlight requests hold a
//     pipeline slot at once. Excess requests wait in a FIFO queue of at
//     most MaxQueue entries; beyond that they are rejected immediately
//     ("queue-full") so memory stays bounded.
//   - Deadline-aware queueing: a queued request whose remaining context
//     deadline can no longer cover the observed p50 service time is
//     rejected ("deadline") instead of being granted a slot it is doomed
//     to waste — both when it arrives and again when its turn comes.
//   - Per-client fairness: a keyed token bucket (ClientQPS/ClientBurst)
//     sheds the hottest clients first ("client-rate") before the shared
//     queue fills, so one aggressive client cannot starve the rest.
//
// Every admitted request carries a shed Tier derived from instantaneous
// gate + queue occupancy. Tier 0 is normal service; tiers 1–3 tell the
// caller to shrink its per-question budget in grades (see gqa.Budget.Shed)
// so the server degrades answer quality smoothly instead of falling over.
// Tiers restore by themselves as occupancy subsides.
//
// Rejections are structured (*RejectError with a Reason from a closed set
// and a RetryAfter hint) so the HTTP layer can emit 429 + Retry-After.
// All counters, gauges, and the queue-wait histogram are pre-registered
// on the obs.Default registry with closed label sets.
package admission

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"gqa/internal/obs"
)

// Reject reasons — a closed set, each pre-registered as a series of
// gqa_admission_rejected_total{reason=...}.
const (
	// ReasonQueueFull: the wait queue is at MaxQueue.
	ReasonQueueFull = "queue-full"
	// ReasonDeadline: the request's remaining deadline cannot cover the
	// observed p50 service time (or expired while queued).
	ReasonDeadline = "deadline"
	// ReasonCanceled: the request's context was canceled while queued.
	ReasonCanceled = "canceled"
	// ReasonClientRate: the per-client token bucket is empty.
	ReasonClientRate = "client-rate"
	// ReasonDraining: the controller is draining for shutdown.
	ReasonDraining = "draining"
)

// MaxTier is the deepest shed tier an admitted request can carry.
const MaxTier = 3

// Admission metrics. Both label sets are closed and pre-registered so the
// Prometheus exposition is stable from the first scrape and the admit
// path only performs atomic updates.
var (
	admittedTotal = obs.DefaultCounter("gqa_admission_admitted_total",
		"Requests granted a pipeline slot (any shed tier).")
	rejectedTotal = map[string]*obs.Counter{
		ReasonQueueFull:  rejectedCounter(ReasonQueueFull),
		ReasonDeadline:   rejectedCounter(ReasonDeadline),
		ReasonCanceled:   rejectedCounter(ReasonCanceled),
		ReasonClientRate: rejectedCounter(ReasonClientRate),
		ReasonDraining:   rejectedCounter(ReasonDraining),
	}
	shedTotal = map[int]*obs.Counter{
		1: shedCounter(1),
		2: shedCounter(2),
		3: shedCounter(3),
	}
	inflightGauge = obs.DefaultGauge("gqa_admission_inflight",
		"Requests currently holding a pipeline slot.")
	queueDepthGauge = obs.DefaultGauge("gqa_admission_queue_depth",
		"Requests waiting for a pipeline slot.")
	queueWaitSeconds = obs.DefaultHistogram("gqa_admission_queue_wait_seconds",
		"Time admitted requests spent queued before receiving a slot.", nil)
	clientsGauge = obs.DefaultGauge("gqa_admission_clients",
		"Per-client token buckets currently tracked (LRU occupancy).")
)

func rejectedCounter(reason string) *obs.Counter {
	return obs.DefaultCounter("gqa_admission_rejected_total",
		"Requests rejected at admission, by reason.", obs.L("reason", reason))
}

func shedCounter(tier int) *obs.Counter {
	return obs.DefaultCounter("gqa_admission_shed_total",
		"Requests admitted under a shed (shrunken) budget, by tier.",
		obs.L("tier", strconv.Itoa(tier)))
}

// RejectError reports a request the controller declined to admit. Reason
// is one of the Reason constants; RetryAfter is the suggested client
// back-off (zero when an immediate retry is reasonable).
type RejectError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("admission: rejected (%s), retry after %s", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("admission: rejected (%s)", e.Reason)
}

// maxClients bounds the tracked per-client buckets (LRU-evicted).
const maxClients = 1024

// Config sizes a Controller. The zero value gets sensible serving
// defaults (see New).
type Config struct {
	// MaxInFlight is the number of concurrent pipeline slots. Default
	// 4×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for a slot
	// beyond the gate. Default 8×MaxInFlight.
	MaxQueue int
	// ClientQPS is the sustained per-client admission rate; 0 disables
	// per-client limiting entirely.
	ClientQPS float64
	// ClientBurst is the per-client bucket capacity. Default
	// max(2×ClientQPS, 1) when ClientQPS is set.
	ClientBurst float64
	// SeedServiceTime pre-seeds the p50 service-time estimate before any
	// request has completed, so deadline-aware drop works from the first
	// burst. Zero leaves the estimate at 0 until observed.
	SeedServiceTime time.Duration
	// Now is the clock (test hook). Default time.Now.
	Now func() time.Time
}

// waiter is one queued request. done flips exactly once, under the
// controller mutex, when the waiter is granted, rejected, or abandoned —
// whichever side flips it owns the outcome.
type waiter struct {
	ready    chan error // buffered(1): nil = slot granted, *RejectError = rejected
	deadline time.Time  // zero = none
	enqueued time.Time
	tier     int // set by the dispatcher at grant time
	done     bool
}

// Controller is the admission gate. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	draining bool
	clients  map[string]*list.Element
	lru      *list.List // front = most recently seen client

	svc svcEstimator
}

// New builds a Controller, applying defaults for unset Config fields.
func New(cfg Config) *Controller {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8 * cfg.MaxInFlight
	}
	if cfg.ClientQPS > 0 && cfg.ClientBurst <= 0 {
		cfg.ClientBurst = max(2*cfg.ClientQPS, 1)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{
		cfg:     cfg,
		clients: make(map[string]*list.Element),
		lru:     list.New(),
	}
	if cfg.SeedServiceTime > 0 {
		c.svc.observe(cfg.SeedServiceTime)
	}
	return c
}

// Ticket is one admitted request's hold on a pipeline slot. Release it
// exactly once, after the pipeline finishes.
type Ticket struct {
	c        *Controller
	tier     int
	wait     time.Duration
	start    time.Time
	released bool
	mu       sync.Mutex
}

// Tier is the shed tier the request was admitted at: 0 for normal
// service, 1–MaxTier for graded budget shrinking under pressure.
func (t *Ticket) Tier() int { return t.tier }

// QueueWait is how long the request waited in the admission FIFO before
// receiving its slot (zero on the fast path). The flight recorder carries
// it on the request's wide event.
func (t *Ticket) QueueWait() time.Duration { return t.wait }

// Release frees the slot, records the observed service time (feeding the
// deadline-aware drop's p50 estimate), and dispatches queued waiters.
// Releasing twice is a no-op.
func (t *Ticket) Release() {
	t.mu.Lock()
	if t.released {
		t.mu.Unlock()
		return
	}
	t.released = true
	t.mu.Unlock()
	c := t.c
	c.svc.observe(c.cfg.Now().Sub(t.start))
	c.mu.Lock()
	c.inflight--
	inflightGauge.Set(int64(c.inflight))
	c.dispatchLocked()
	c.mu.Unlock()
}

// Admit asks for a pipeline slot on behalf of client (any stable key —
// the serving layer uses the remote address or an X-Client header).
// It returns a Ticket, or a *RejectError explaining the refusal. Admit
// blocks only while the request waits in the FIFO queue; ctx cancellation
// or expiry while queued abandons the wait and returns a rejection.
func (c *Controller) Admit(ctx context.Context, client string) (*Ticket, error) {
	now := c.cfg.Now()
	// A dead context never gets a slot, even with the gate open.
	if err := ctx.Err(); err != nil {
		return nil, c.reject(ctxReason(err), 0)
	}
	deadline, hasDeadline := ctx.Deadline()

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, c.reject(ReasonDraining, 0)
	}
	if c.cfg.ClientQPS > 0 && client != "" {
		if retry, ok := c.takeTokenLocked(client, now); !ok {
			c.mu.Unlock()
			return nil, c.reject(ReasonClientRate, retry)
		}
	}
	// Fast path: a free slot and nobody queued ahead.
	if c.inflight < c.cfg.MaxInFlight && len(c.queue) == 0 {
		c.inflight++
		inflightGauge.Set(int64(c.inflight))
		tier := c.tierLocked()
		c.mu.Unlock()
		return c.granted(tier, 0), nil
	}
	// Queue, bounded.
	if len(c.queue) >= c.cfg.MaxQueue {
		retry := c.drainEstimateLocked()
		c.mu.Unlock()
		return nil, c.reject(ReasonQueueFull, retry)
	}
	// Deadline-aware drop at enqueue: a request that cannot cover the
	// observed p50 service time is doomed — reject it now rather than
	// letting it occupy queue space and, later, a pipeline slot.
	if hasDeadline {
		if p50 := c.svc.p50(); deadline.Sub(now) < p50 {
			c.mu.Unlock()
			return nil, c.reject(ReasonDeadline, 0)
		}
	}
	w := &waiter{ready: make(chan error, 1), enqueued: now}
	if hasDeadline {
		w.deadline = deadline
	}
	c.queue = append(c.queue, w)
	queueDepthGauge.Set(int64(len(c.queue)))
	c.mu.Unlock()

	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		wait := c.cfg.Now().Sub(w.enqueued)
		queueWaitSeconds.ObserveDuration(wait)
		return c.granted(w.tier, wait), nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.done {
			// The dispatcher resolved the waiter before we could abandon
			// it; consume its outcome. A granted slot must go back.
			c.mu.Unlock()
			if err := <-w.ready; err == nil {
				c.mu.Lock()
				c.inflight--
				inflightGauge.Set(int64(c.inflight))
				c.dispatchLocked()
				c.mu.Unlock()
			}
			return nil, c.reject(ctxReason(ctx.Err()), 0)
		}
		w.done = true
		c.removeLocked(w)
		queueDepthGauge.Set(int64(len(c.queue)))
		c.mu.Unlock()
		return nil, c.reject(ctxReason(ctx.Err()), 0)
	}
}

// Drain flips the controller into shutdown mode: every queued waiter is
// rejected ("draining") and every future Admit is refused. In-flight
// requests keep their slots until Release.
func (c *Controller) Drain() {
	c.mu.Lock()
	c.draining = true
	for _, w := range c.queue {
		if !w.done {
			w.done = true
			rejectedTotal[ReasonDraining].Inc()
			w.ready <- &RejectError{Reason: ReasonDraining}
		}
	}
	c.queue = nil
	queueDepthGauge.Set(0)
	c.mu.Unlock()
}

// InFlight reports the requests currently holding slots.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// QueueDepth reports the requests currently waiting.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// granted finalizes an admission: metrics plus the caller's ticket.
func (c *Controller) granted(tier int, wait time.Duration) *Ticket {
	admittedTotal.Inc()
	if ctr, ok := shedTotal[tier]; ok {
		ctr.Inc()
	}
	return &Ticket{c: c, tier: tier, wait: wait, start: c.cfg.Now()}
}

// reject counts and builds a rejection.
func (c *Controller) reject(reason string, retry time.Duration) *RejectError {
	rejectedTotal[reason].Inc()
	return &RejectError{Reason: reason, RetryAfter: retry}
}

// ctxReason maps a context error onto the rejection taxonomy.
func ctxReason(err error) string {
	if err == context.Canceled {
		return ReasonCanceled
	}
	return ReasonDeadline
}

// dispatchLocked hands freed slots to queued waiters in FIFO order,
// rejecting any whose remaining deadline no longer covers the observed
// p50 service time — a doomed request must never consume a slot.
func (c *Controller) dispatchLocked() {
	now := c.cfg.Now()
	p50 := c.svc.p50()
	for c.inflight < c.cfg.MaxInFlight && len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		if w.done {
			continue
		}
		w.done = true
		if !w.deadline.IsZero() && w.deadline.Sub(now) < p50 {
			rejectedTotal[ReasonDeadline].Inc()
			w.ready <- &RejectError{Reason: ReasonDeadline}
			continue
		}
		c.inflight++
		inflightGauge.Set(int64(c.inflight))
		w.tier = c.tierLocked()
		w.ready <- nil
	}
	if len(c.queue) == 0 {
		// Let the drained backing array go.
		c.queue = nil
	}
	queueDepthGauge.Set(int64(len(c.queue)))
}

// removeLocked deletes an abandoned waiter from the queue.
func (c *Controller) removeLocked(w *waiter) {
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// tierLocked derives the shed tier from instantaneous occupancy: the
// pressure signal is (inflight + queued) / (MaxInFlight + MaxQueue),
// graded at 25/50/75%. Computed at grant time, so tiers rise as the
// queue deepens and restore as it drains — no hysteresis state to decay.
func (c *Controller) tierLocked() int {
	p := float64(c.inflight+len(c.queue)) / float64(c.cfg.MaxInFlight+c.cfg.MaxQueue)
	switch {
	case p >= 0.75:
		return 3
	case p >= 0.5:
		return 2
	case p >= 0.25:
		return 1
	default:
		return 0
	}
}

// drainEstimateLocked estimates how long a full queue takes to drain —
// the Retry-After hint on queue-full rejections.
func (c *Controller) drainEstimateLocked() time.Duration {
	p50 := c.svc.p50()
	if p50 <= 0 {
		return 0
	}
	return p50 * time.Duration(len(c.queue)+1) / time.Duration(c.cfg.MaxInFlight)
}

// ------------------------------------------------------------- client rate

// clientBucket is one client's token bucket, refilled lazily on access.
type clientBucket struct {
	key    string
	tokens float64
	last   time.Time
}

// takeTokenLocked takes one admission token for key, refilling from the
// elapsed time since the bucket was last touched. Returns (0, true) on
// success or (retry hint, false) when the bucket is empty. Buckets are
// LRU-bounded at maxClients so hostile key cardinality cannot grow state.
func (c *Controller) takeTokenLocked(key string, now time.Time) (time.Duration, bool) {
	el, ok := c.clients[key]
	var b *clientBucket
	if !ok {
		if c.lru.Len() >= maxClients {
			oldest := c.lru.Back()
			delete(c.clients, oldest.Value.(*clientBucket).key)
			c.lru.Remove(oldest)
		}
		b = &clientBucket{key: key, tokens: c.cfg.ClientBurst, last: now}
		c.clients[key] = c.lru.PushFront(b)
		clientsGauge.Set(int64(c.lru.Len()))
	} else {
		b = el.Value.(*clientBucket)
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = min(c.cfg.ClientBurst, b.tokens+dt*c.cfg.ClientQPS)
		}
		b.last = now
		c.lru.MoveToFront(el)
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / c.cfg.ClientQPS
	return time.Duration(need * float64(time.Second)), false
}

// ------------------------------------------------------------ p50 tracking

const (
	svcWindow = 256 // rolling service-time samples retained
	svcRecalc = 16  // recompute the cached p50 every N observations
)

// svcEstimator tracks a rolling p50 of observed service times. observe is
// a ring-buffer write; the percentile is recomputed every svcRecalc
// observations so the estimate stays cheap on the admit path.
type svcEstimator struct {
	mu     sync.Mutex
	ring   [svcWindow]time.Duration
	idx, n int
	dirty  int
	cached time.Duration
}

func (e *svcEstimator) observe(d time.Duration) {
	e.mu.Lock()
	e.ring[e.idx] = d
	e.idx = (e.idx + 1) % svcWindow
	if e.n < svcWindow {
		e.n++
	}
	e.dirty++
	// Recompute eagerly while the window is still small so the estimate
	// tracks the first requests, then settle into the periodic cadence.
	if e.dirty >= svcRecalc || e.n <= svcRecalc {
		buf := make([]time.Duration, e.n)
		copy(buf, e.ring[:e.n])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		e.cached = buf[e.n/2]
		e.dirty = 0
	}
	e.mu.Unlock()
}

func (e *svcEstimator) p50() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cached
}
