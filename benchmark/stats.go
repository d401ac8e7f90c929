package main

import (
	"math"
	"sort"
	"time"

	"gqa/internal/obs"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is sorted
// in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// msSince runs f and returns its wall time in milliseconds.
func msSince(f func()) float64 {
	start := time.Now()
	f()
	return ms(time.Since(start))
}

// minSamplesBeyond is how many samples must lie beyond a reported
// percentile for it to mean anything.
const minSamplesBeyond = 10

// enoughFor reports whether n samples support the p-quantile.
func enoughFor(n int, p float64) bool {
	return float64(n)*(1-p) >= minSamplesBeyond
}

// histDelta is the growth of one obs histogram between two readings, so a
// phase can take quantiles of just its own observations.
type histDelta struct {
	h      *obs.Histogram
	counts []int64
	sum    float64
	n      int64
}

func startHist(h *obs.Histogram) *histDelta {
	return &histDelta{h: h, counts: h.Counts(), sum: h.Sum(), n: h.Count()}
}

// stop turns the reading into the delta since startHist.
func (d *histDelta) stop() {
	now := d.h.Counts()
	for i := range now {
		d.counts[i] = now[i] - d.counts[i]
	}
	d.sum = d.h.Sum() - d.sum
	d.n = d.h.Count() - d.n
}

// quantileUs is the bucket-interpolated q-quantile in microseconds of a
// histogram observed in seconds.
func (d *histDelta) quantileUs(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	return obs.QuantileFromCounts(d.h.Bounds(), d.counts, q) * 1e6
}
