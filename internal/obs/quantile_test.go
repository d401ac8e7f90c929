package obs

import (
	"math"
	"testing"
)

// TestQuantileUniform checks the estimator against a known distribution:
// the integers 1..10 observed once each on bounds {1,2,5,10}. Exact
// per-bucket counts are [1,1,3,5,0], so the interpolated quantiles are
// fully determined.
func TestQuantileUniform(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gqa_test_q_seconds", "q", []float64{1, 2, 5, 10})
	for v := 1; v <= 10; v++ {
		h.Observe(float64(v))
	}
	cases := []struct{ q, want float64 }{
		{0, 0},      // rank 0 lands at the first bucket's lower edge
		{0.1, 1},    // rank 1: all of bucket (0,1]
		{0.2, 2},    // rank 2: all of bucket (1,2]
		{0.5, 5},    // rank 5: all of bucket (2,5]
		{0.7, 7},    // rank 7: 2/5 into bucket (5,10]
		{0.9, 9},    // rank 9: 4/5 into bucket (5,10]
		{1, 10},     // rank 10: upper edge
		{-0.5, 0},   // clamped to 0
		{1.5, 10},   // clamped to 1
		{0.25, 2.5}, // rank 2.5: half an observation into (2,5]
	}
	for _, c := range cases {
		if got := QuantileFromCounts(h.Bounds(), h.Counts(), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestQuantileInfClamp: observations in the +Inf bucket clamp to the
// largest finite bound instead of returning infinity.
func TestQuantileInfClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gqa_test_inf_seconds", "q", []float64{0.1, 1})
	h.Observe(50) // +Inf bucket
	h.Observe(75) // +Inf bucket
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := QuantileFromCounts(h.Bounds(), h.Counts(), q); got != 1 {
			t.Errorf("Quantile(%v) = %v, want clamp to 1", q, got)
		}
	}
}

// TestQuantileEmpty: an empty histogram reports 0 for every quantile.
func TestQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gqa_test_empty_seconds", "q", []float64{1, 2})
	if got := QuantileFromCounts(h.Bounds(), h.Counts(), 0.5); got != 0 {
		t.Fatalf("Quantile on empty histogram = %v, want 0", got)
	}
	if got := QuantileFromCounts(nil, nil, 0.5); got != 0 {
		t.Fatalf("QuantileFromCounts(nil) = %v, want 0", got)
	}
}

// TestQuantileFromCountsDelta exercises the SLO tracker's usage: quantiles
// over a windowed delta of two bucket-count snapshots.
func TestQuantileFromCountsDelta(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gqa_test_delta_seconds", "q", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	before := h.Counts()
	// The window under test: four observations uniform in (1,2].
	for i := 0; i < 4; i++ {
		h.Observe(1.5)
	}
	after := h.Counts()
	delta := make([]int64, len(after))
	for i := range after {
		delta[i] = after[i] - before[i]
	}
	// All four deltas sit in bucket (1,2]; the median interpolates to 1.5.
	if got := QuantileFromCounts(h.Bounds(), delta, 0.5); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("windowed median = %v, want 1.5", got)
	}
	// The windowed p90 stays inside (1,2] while the whole histogram's p90
	// reaches into the (2,4] bucket — the delta isolated the window.
	if got := QuantileFromCounts(h.Bounds(), delta, 0.9); math.Abs(got-1.9) > 1e-9 {
		t.Fatalf("windowed p90 = %v, want 1.9", got)
	}
	if got := QuantileFromCounts(h.Bounds(), h.Counts(), 0.9); got <= 2 {
		t.Fatalf("whole-histogram p90 = %v, want > 2", got)
	}
}

// TestQuantileSingleBucket: interpolation inside the first bucket starts
// from lower bound 0.
func TestQuantileSingleBucket(t *testing.T) {
	got := QuantileFromCounts([]float64{10}, []int64{4, 0}, 0.25)
	if math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", got)
	}
}

// TestFloatGaugeSetValue: FloatGauge stores and returns exact float64
// values, including negatives and fractions.
func TestFloatGaugeSetValue(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("gqa_test_rate", "rate")
	if g.Value() != 0 {
		t.Fatalf("zero value = %v, want 0", g.Value())
	}
	g.Set(1.25)
	if g.Value() != 1.25 {
		t.Fatalf("Value = %v, want 1.25", g.Value())
	}
	g.Set(-0.5)
	if g.Value() != -0.5 {
		t.Fatalf("Value = %v, want -0.5", g.Value())
	}
}
