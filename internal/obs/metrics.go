package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant key="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// TimeBuckets are the default latency histogram bounds, in seconds:
// 100µs … 10s in a coarse exponential ladder. Question answering on the
// bundled KBs sits in the 100µs–100ms band; the upper decades catch
// degraded or pathological questions.
var TimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metric is the common behaviour of every registered series.
type metric interface {
	meta() *metricMeta
	// writeSeries appends the series' exposition lines (no HELP/TYPE).
	writeSeries(b *strings.Builder)
}

type metricMeta struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	labels []Label
}

// key returns the registry key: the name plus the rendered label set.
func (m *metricMeta) key() string { return m.name + renderLabels(m.labels, "", 0) }

// Registry holds a set of metrics. All methods are safe for concurrent
// use; metric updates themselves are single atomic operations and take no
// registry lock.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// Default is the process-wide registry exposed by gqa-serve's /metrics.
var Default = NewRegistry()

// NewRegistry returns an empty registry (tests use private ones).
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register returns the existing metric under meta's key or installs fresh.
// Re-registering a name with a different kind is a programming error.
func (r *Registry) register(m *metricMeta, fresh func() metric) metric {
	k := m.key()
	r.mu.RLock()
	got, ok := r.metrics[k]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if got, ok = r.metrics[k]; !ok {
			got = fresh()
			r.metrics[k] = got
		}
		r.mu.Unlock()
	}
	if got.meta().kind != m.kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", m.name, m.kind, got.meta().kind))
	}
	return got
}

// Counter registers (or returns the existing) monotonically increasing
// counter under name with the given constant labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := &metricMeta{name: name, help: help, kind: "counter", labels: labels}
	return r.register(m, func() metric { return &Counter{m: m} }).(*Counter)
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := &metricMeta{name: name, help: help, kind: "gauge", labels: labels}
	return r.register(m, func() metric { return &Gauge{m: m} }).(*Gauge)
}

// FloatGauge registers (or returns the existing) float-valued gauge under
// name. It renders with TYPE gauge; use it for ratios and quantiles where
// an integer gauge would lose everything after the decimal point.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	m := &metricMeta{name: name, help: help, kind: "gauge", labels: labels}
	return r.register(m, func() metric { return &FloatGauge{m: m} }).(*FloatGauge)
}

// Histogram registers (or returns the existing) fixed-bucket histogram
// under name. Buckets are upper bounds in ascending order; an implicit
// +Inf bucket is always appended. Nil buckets mean TimeBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = TimeBuckets
	}
	m := &metricMeta{name: name, help: help, kind: "histogram", labels: labels}
	return r.register(m, func() metric {
		return &Histogram{m: m, bounds: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
	}).(*Histogram)
}

// sorted returns the metrics ordered by name, then label signature, so
// series of one name stay adjacent under a single HELP/TYPE block.
func (r *Registry) sorted() []metric {
	r.mu.RLock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		mi, mj := out[i].meta(), out[j].meta()
		if mi.name != mj.name {
			return mi.name < mj.name
		}
		return mi.key() < mj.key()
	})
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	for _, m := range r.sorted() {
		mm := m.meta()
		if mm.name != lastName {
			lastName = mm.name
			b.WriteString("# HELP ")
			b.WriteString(mm.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(mm.help))
			b.WriteByte('\n')
			b.WriteString("# TYPE ")
			b.WriteString(mm.name)
			b.WriteByte(' ')
			b.WriteString(mm.kind)
			b.WriteByte('\n')
		}
		m.writeSeries(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ------------------------------------------------------------------ counter

// Counter is a monotonically increasing value. Inc/Add are one atomic op.
type Counter struct {
	m *metricMeta
	v atomic.Int64
}

func (c *Counter) meta() *metricMeta { return c.m }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the counter contract to hold).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSeries(b *strings.Builder) {
	b.WriteString(c.m.name)
	b.WriteString(renderLabels(c.m.labels, "", 0))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(c.v.Load(), 10))
	b.WriteByte('\n')
}

// -------------------------------------------------------------------- gauge

// Gauge is an instantaneous value (pool occupancy, sizes).
type Gauge struct {
	m *metricMeta
	v atomic.Int64
}

func (g *Gauge) meta() *metricMeta { return g.m }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeSeries(b *strings.Builder) {
	b.WriteString(g.m.name)
	b.WriteString(renderLabels(g.m.labels, "", 0))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(g.v.Load(), 10))
	b.WriteByte('\n')
}

// -------------------------------------------------------------- float gauge

// FloatGauge is an instantaneous float64 value (quantiles, burn rates).
type FloatGauge struct {
	m *metricMeta
	v atomic.Uint64 // float64 bits
}

func (g *FloatGauge) meta() *metricMeta { return g.m }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

func (g *FloatGauge) writeSeries(b *strings.Builder) {
	b.WriteString(g.m.name)
	b.WriteString(renderLabels(g.m.labels, "", 0))
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// ---------------------------------------------------------------- histogram

// Histogram is a fixed-bucket distribution. Observe is a bucket scan plus
// two atomic ops (bucket count and total count) and one CAS loop (float
// sum) — no locks, no allocation.
type Histogram struct {
	m      *metricMeta
	bounds []float64      // ascending upper bounds; counts has one extra +Inf slot
	counts []atomic.Int64 // per-bucket (non-cumulative) observation counts
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func (h *Histogram) meta() *metricMeta { return h.m }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Counts returns a copy of the per-bucket (non-cumulative) observation
// counts, the +Inf bucket last — the raw material for windowed quantiles
// (snapshot now, subtract a snapshot from window-start, feed the delta to
// QuantileFromCounts).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the histogram's finite upper bounds (shared, do not
// mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of everything observed so
// far, interpolating linearly within the owning bucket. Observations that
// landed in the +Inf bucket clamp to the largest finite bound — the
// histogram cannot say more. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileFromCounts(h.bounds, h.Counts(), q)
}

// QuantileFromCounts is Histogram.Quantile over an explicit bucket-count
// vector (len(bounds)+1 entries, +Inf last): the shared implementation the
// SLO tracker uses on windowed count deltas so rolling quantiles need no
// second sampling structure.
func QuantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// rank is the (fractional) number of observations at or below the
	// quantile point; walk the cumulative counts to its owning bucket.
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

func (h *Histogram) writeSeries(b *strings.Builder) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(h.m.name)
		b.WriteString("_bucket")
		b.WriteString(renderLabels(h.m.labels, "le", bound))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(h.m.name)
	b.WriteString("_bucket")
	b.WriteString(renderLabels(h.m.labels, "le", math.Inf(1)))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')

	b.WriteString(h.m.name)
	b.WriteString("_sum")
	b.WriteString(renderLabels(h.m.labels, "", 0))
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(h.m.name)
	b.WriteString("_count")
	b.WriteString(renderLabels(h.m.labels, "", 0))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(h.count.Load(), 10))
	b.WriteByte('\n')
}

// -------------------------------------------------------------- rendering

// renderLabels renders {k="v",…}, appending an le label when leKey is set.
// Returns "" for an empty label set with no le.
func renderLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders floats the way Prometheus expects: shortest exact
// decimal, +Inf spelled literally.
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format: backslash,
// double-quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
