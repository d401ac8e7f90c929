package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixtureRegistry populates a private registry with one metric of
// every kind, including labeled series and label values that exercise the
// escaping rules (backslash, double quote, newline).
func buildFixtureRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("gqa_test_questions_total", "Questions answered.")
	c.Add(41)
	c.Inc()
	r.Counter("gqa_test_degraded_total", "Degraded answers by reason.", L("reason", "deadline")).Add(3)
	r.Counter("gqa_test_degraded_total", "Degraded answers by reason.", L("reason", "steps")).Add(1)
	r.Counter("gqa_test_degraded_total", "Degraded answers by reason.", L("reason", "matches"))

	// Closed label sets, admission-style: every series of the set is
	// pre-registered before traffic (most still zero), the shape
	// internal/admission relies on for a scrape-stable exposition.
	for _, reason := range []string{"canceled", "client-rate", "deadline", "draining", "queue-full"} {
		r.Counter("gqa_test_admission_rejected_total", "Rejections by reason.", L("reason", reason))
	}
	r.Counter("gqa_test_admission_rejected_total", "Rejections by reason.", L("reason", "queue-full")).Add(2)
	for _, tier := range []string{"1", "2", "3"} {
		r.Counter("gqa_test_admission_shed_total", "Shed admissions by tier.", L("tier", tier))
	}
	r.Counter("gqa_test_escape_total", `Help with a backslash \ and
a newline.`, L("q", "say \"hi\"\\\nbye")).Inc()

	g := r.Gauge("gqa_test_pool_workers", "Live matcher workers.")
	g.Set(7)
	g.Add(-3)

	// Occupancy gauges in the gqa_cache_entries / gqa_admission_clients
	// shape: plain, unlabeled, refreshed by Set.
	r.Gauge("gqa_test_cache_entries", "Cache entries currently stored.").Set(12)

	// Float gauges, SLO-style: a closed label set of quantiles plus an
	// unlabeled burn rate with a non-integral value.
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		r.FloatGauge("gqa_test_latency_seconds", "Rolling latency quantiles.", L("quantile", q))
	}
	r.FloatGauge("gqa_test_latency_seconds", "Rolling latency quantiles.", L("quantile", "0.95")).Set(0.0625)
	r.FloatGauge("gqa_test_burn_rate", "Error-budget burn rate.").Set(1.5)

	h := r.Histogram("gqa_test_stage_seconds", "Stage latency.", []float64{0.001, 0.01, 0.1}, L("stage", "parse"))
	for _, v := range []float64{0.0004, 0.002, 0.0025, 0.05, 3} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusExpositionGolden locks the text exposition format —
// HELP/TYPE grouping, counter/gauge/histogram rendering, cumulative
// buckets, +Inf, and label escaping — against a golden file.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := buildFixtureRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "exposition.prom", b.String())
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRegisterIdempotent: re-registering a series returns the same metric;
// a kind clash panics.
func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("gqa_test_x_total", "x")
	b := r.Counter("gqa_test_x_total", "x")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a2 := r.Counter("gqa_test_x_total", "x", L("k", "v"))
	if a2 == a {
		t.Fatal("distinct label sets share a series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("gqa_test_x_total", "x")
}

// TestConcurrentUpdates: counters and histograms stay exact under
// concurrent hammering (run with -race).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gqa_test_c_total", "c")
	h := r.Histogram("gqa_test_h_seconds", "h", []float64{1, 10}, L("stage", "x"))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := float64(workers*per) * 0.5; h.Sum() != want {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}
