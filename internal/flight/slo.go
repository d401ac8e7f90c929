package flight

import (
	"sync"
	"time"

	"gqa/internal/obs"
)

// The SLO instruments are pre-registered package-wide (closed series set,
// scrape-stable from boot). The histogram doubles as the quantile source:
// rolling p50/p95/p99 come from obs.QuantileFromCounts over windowed
// bucket-count deltas — no second sampling structure.
var (
	sloRequestSeconds = obs.DefaultHistogram("gqa_slo_request_seconds",
		"answered-request latency as observed by the SLO tracker", nil)
	sloRequestsTotal = obs.DefaultCounter("gqa_slo_requests_total",
		"requests counted against the latency SLO")
	sloBreachesTotal = obs.DefaultCounter("gqa_slo_breaches_total",
		"requests that exceeded the latency objective")
	sloQuantile = map[string]*obs.FloatGauge{
		"0.5":  obs.DefaultFloatGauge("gqa_slo_latency_seconds", "rolling latency quantile over the largest burn window", obs.L("quantile", "0.5")),
		"0.95": obs.DefaultFloatGauge("gqa_slo_latency_seconds", "rolling latency quantile over the largest burn window", obs.L("quantile", "0.95")),
		"0.99": obs.DefaultFloatGauge("gqa_slo_latency_seconds", "rolling latency quantile over the largest burn window", obs.L("quantile", "0.99")),
	}
	sloBurn = map[string]*obs.FloatGauge{
		"1m":  obs.DefaultFloatGauge("gqa_slo_burn_rate", "error-budget burn rate per window (1 = burning exactly the budget)", obs.L("window", "1m")),
		"5m":  obs.DefaultFloatGauge("gqa_slo_burn_rate", "error-budget burn rate per window (1 = burning exactly the budget)", obs.L("window", "5m")),
		"30m": obs.DefaultFloatGauge("gqa_slo_burn_rate", "error-budget burn rate per window (1 = burning exactly the budget)", obs.L("window", "30m")),
	}
)

// sloWindows are the burn-rate windows, shortest first. The largest also
// scopes the rolling quantiles. Fixed so the gauge label set stays closed.
var sloWindows = []struct {
	name string
	d    time.Duration
}{{"1m", time.Minute}, {"5m", 5 * time.Minute}, {"30m", 30 * time.Minute}}

// sloTarget is the fraction of requests that must meet the objective; the
// error budget is 1 - sloTarget.
const sloTarget = 0.99

// sloTracker measures answered requests against a latency objective. Each
// tick it snapshots the cumulative histogram counts into a ring; windowed
// stats are deltas between the newest and an older snapshot, so the
// tracker's whole state is the ring — bounded, allocation-free per
// observation.
type sloTracker struct {
	objective time.Duration
	every     time.Duration

	mu     sync.Mutex
	ring   []sloSnap
	pos    int
	filled int
}

type sloSnap struct {
	counts   []int64
	requests int64
	breaches int64
}

func newSLOTracker(objective, tick time.Duration) *sloTracker {
	n := int(sloWindows[len(sloWindows)-1].d/tick) + 1
	if n < 2 {
		n = 2
	}
	t := &sloTracker{objective: objective, every: tick, ring: make([]sloSnap, n)}
	t.ring[0] = t.snapshot() // window baseline: the state at construction
	t.pos, t.filled = 1, 1
	return t
}

func (t *sloTracker) observe(d time.Duration) {
	sloRequestSeconds.ObserveDuration(d)
	sloRequestsTotal.Inc()
	if d > t.objective {
		sloBreachesTotal.Inc()
	}
}

func (t *sloTracker) snapshot() sloSnap {
	return sloSnap{
		counts:   sloRequestSeconds.Counts(),
		requests: sloRequestsTotal.Value(),
		breaches: sloBreachesTotal.Value(),
	}
}

// tick records a snapshot and refreshes the gqa_slo_* gauges.
func (t *sloTracker) tick() {
	t.mu.Lock()
	t.ring[t.pos] = t.snapshot()
	t.pos = (t.pos + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	st := t.statusLocked()
	t.mu.Unlock()

	sloQuantile["0.5"].Set(st.P50Ms / 1e3)
	sloQuantile["0.95"].Set(st.P95Ms / 1e3)
	sloQuantile["0.99"].Set(st.P99Ms / 1e3)
	for _, w := range st.Burn {
		if g, ok := sloBurn[w.Window]; ok {
			g.Set(w.Rate)
		}
	}
}

// at returns the snapshot closest to `ago` in the past (clamped to the
// oldest retained).
func (t *sloTracker) at(ago time.Duration) sloSnap {
	back := int(ago / t.every)
	if back < 1 {
		back = 1
	}
	// filled snapshots exist: the newest at back=1, the oldest (the
	// construction baseline, until the ring wraps) at back=filled.
	if back > t.filled {
		back = t.filled
	}
	return t.ring[((t.pos-back)%len(t.ring)+len(t.ring))%len(t.ring)]
}

// SLOStatus is the /debug/flight/slo document.
type SLOStatus struct {
	ObjectiveMs float64   `json:"objective_ms"`
	Target      float64   `json:"target"`
	Requests    int64     `json:"requests"`
	Breaches    int64     `json:"breaches"`
	WindowMs    int64     `json:"quantile_window_ms"`
	P50Ms       float64   `json:"p50_ms"`
	P95Ms       float64   `json:"p95_ms"`
	P99Ms       float64   `json:"p99_ms"`
	Burn        []SLOBurn `json:"burn"`
}

// SLOBurn is one window's burn rate: the fraction of the error budget
// being consumed, normalized so 1.0 means "burning exactly the budget".
type SLOBurn struct {
	Window   string  `json:"window"`
	Requests int64   `json:"requests"`
	Breaches int64   `json:"breaches"`
	Rate     float64 `json:"rate"`
}

func (t *sloTracker) status() SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.statusLocked()
}

func (t *sloTracker) statusLocked() SLOStatus {
	cur := t.snapshot()
	largest := sloWindows[len(sloWindows)-1].d
	st := SLOStatus{
		ObjectiveMs: t.objective.Seconds() * 1e3,
		Target:      sloTarget,
		Requests:    cur.requests,
		Breaches:    cur.breaches,
		WindowMs:    largest.Milliseconds(),
	}
	old := t.at(largest)
	delta := make([]int64, len(cur.counts))
	for i := range delta {
		delta[i] = cur.counts[i] - old.counts[i]
	}
	bounds := sloRequestSeconds.Bounds()
	st.P50Ms = obs.QuantileFromCounts(bounds, delta, 0.5) * 1e3
	st.P95Ms = obs.QuantileFromCounts(bounds, delta, 0.95) * 1e3
	st.P99Ms = obs.QuantileFromCounts(bounds, delta, 0.99) * 1e3

	budget := 1 - sloTarget
	for _, w := range sloWindows {
		o := t.at(w.d)
		req := cur.requests - o.requests
		bad := cur.breaches - o.breaches
		burn := SLOBurn{Window: w.name, Requests: req, Breaches: bad}
		if req > 0 && budget > 0 {
			burn.Rate = (float64(bad) / float64(req)) / budget
		}
		st.Burn = append(st.Burn, burn)
	}
	return st
}
