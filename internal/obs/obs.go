// Package obs is the observability layer of the engine: a lock-cheap
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms with Prometheus text-format exposition) and per-question
// trace spans threaded through context.Context.
//
// The package is stdlib-only and sits at the leaf of the dependency graph
// so every pipeline package (linker, dict, store, sparql, core, the
// facade) can instrument itself without cycles.
//
// # Metrics
//
// Metrics live in a Registry; the process-wide Default registry is what
// /metrics on gqa-serve exposes. Instrumented packages create their metrics
// once as package variables:
//
//	var links = obs.DefaultCounter("gqa_linker_link_total", "mentions linked")
//
// and update them with a single atomic operation on the hot path. Metric
// names follow gqa_<pkg>_<name>_<unit> (units: _total for counters,
// _seconds for latency histograms). Constant labels distinguish series of
// one name (e.g. the per-stage latency histogram's stage label). A series
// is served only if something reads it: TestMetricLedger holds the served
// series to a ledger naming, for each, the benchmark/ file or test that
// reads it.
//
// # Tracing
//
// A Trace is a per-question tree of spans recording start/end times and
// stage attributes (candidate counts, TA rounds, seeds expanded, budget
// spent, …). It rides on the context:
//
//	tr := obs.NewTrace("answer", question)
//	ans, err := sys.AnswerContext(obs.WithTrace(ctx, tr), question)
//
// Tracing is strictly opt-in and a disabled trace is free: every method on
// a nil *Trace or nil *Span is a no-op that performs zero allocations and
// never reads the clock, so un-traced hot paths stay at their un-traced
// cost.
package obs

// DefaultCounter registers (or returns the existing) counter on the
// Default registry.
func DefaultCounter(name, help string, labels ...Label) *Counter {
	return Default.Counter(name, help, labels...)
}

// DefaultGauge registers (or returns the existing) gauge on the Default
// registry.
func DefaultGauge(name, help string, labels ...Label) *Gauge {
	return Default.Gauge(name, help, labels...)
}

// DefaultFloatGauge registers (or returns the existing) float gauge on the
// Default registry.
func DefaultFloatGauge(name, help string, labels ...Label) *FloatGauge {
	return Default.FloatGauge(name, help, labels...)
}

// DefaultHistogram registers (or returns the existing) histogram on the
// Default registry.
func DefaultHistogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return Default.Histogram(name, help, buckets, labels...)
}
