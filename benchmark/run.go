package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// report is what one run of one workload prints.
type report struct {
	workload  string
	seed      int64
	traced    bool
	inputHash string
	metrics   map[string]float64
	notes     []string // sample counts and other context, printed with the metrics
	invalid   []string // why the run's numbers must not be used; empty for a valid run
	attempted int
	failed    int
	spans     *recorder // traced runs only
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// invalidate marks the run's numbers as not to be used: it had too few
// rounds for the best of them to stand for a quiet machine.
func (r *report) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// Set-up is repeated on fresh objects and the median reported: at least
// setupReps times, and for a set-up of a few milliseconds, whose single
// timings scatter most, up to setupRepsMax times or setupBudget in all.
const (
	setupReps    = 5
	setupRepsMax = 50
	setupBudget  = 500 * time.Millisecond
)

// timedSetups sets the workload up several times, each from scratch with
// the previous fixture released, and returns the last fixture with the
// median set-up time in seconds.
func timedSetups(workload string, seed int64, sz sizes) (*fixture, float64, error) {
	var fx *fixture
	var took []float64
	var total time.Duration
	for len(took) < setupReps || (len(took) < setupRepsMax && total < setupBudget) {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC()
		start := time.Now()
		next, err := newFixture(workload, seed, sz)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		fx = next
		total += d
		took = append(took, d.Seconds())
	}
	return fx, percentile(took, 0.5), nil
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// tally counts operations over the timed rounds.
type tally struct {
	attempted, failed, right atomic.Int64
}

// one runs a single operation and scores it: failed on an error (which
// covers non-200 and shed responses) or on any answer other than the
// verified reference, which a degraded answer never equals.
func (t *tally) one(ctx context.Context, fx *fixture, qi int) time.Duration {
	q := &fx.qs[qi]
	got, d, err := fx.ask(ctx, q.text)
	t.attempted.Add(1)
	switch {
	case err != nil || got != q.want:
		t.failed.Add(1)
	case q.right:
		t.right.Add(1)
	}
	return d
}

// stream hands out question indexes: seed-shuffled passes over the
// question list, every question once per pass, or on serve-zipf the drawn
// stream from its start, wrapped around.
type stream struct {
	fx   *fixture
	rng  *rand.Rand
	perm []int
	pos  int
}

func newStream(fx *fixture, seed int64) *stream {
	s := &stream{fx: fx, rng: rand.New(rand.NewSource(seed * 7919))}
	if fx.drawn != nil {
		s.perm = fx.drawn
		return s
	}
	s.perm = make([]int, len(fx.qs))
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = len(s.perm)
	return s
}

func (s *stream) next() int {
	if s.pos >= len(s.perm) {
		s.pos = 0
		if s.fx.drawn == nil {
			s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		}
	}
	qi := s.perm[s.pos]
	s.pos++
	return qi
}

// take returns the next n question indexes.
func (s *stream) take(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = s.next()
	}
	return order
}

// samples are latencies in milliseconds, each filed under a slot: the
// question asked, or on serve-zipf the position in the replayed stretch,
// since there the same question is a hit at one position and a miss at
// another.
type samples struct {
	ms   []float64
	slot []int
}

func (s *samples) add(slots []int, ms []float64) {
	s.slot, s.ms = append(s.slot, slots...), append(s.ms, ms...)
}

// medians returns the median latency of each of the n slots, which all
// have samples.
func (s *samples) medians(n int) []float64 {
	per := make([][]float64, n)
	for i, slot := range s.slot {
		per[slot] = append(per[slot], s.ms[i])
	}
	out := make([]float64, n)
	for slot, xs := range per {
		out[slot] = percentile(xs, 0.5)
	}
	return out
}

// byTemplate renders each template's slot count and the median of its
// slots' values, so a reader can see which template owns which percentile
// of the mix.
func byTemplate(fx *fixture, perSlot []float64) string {
	per := make(map[string][]float64)
	for slot, v := range perSlot {
		t := fx.slotTemplate(slot)
		per[t] = append(per[t], v)
	}
	names := make([]string, 0, len(per))
	for t := range per {
		names = append(names, t)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, t := range names {
		fmt.Fprintf(&b, "  %s n=%d p50=%.4f ms", t, len(per[t]), percentile(per[t], 0.5))
	}
	return b.String()
}

// askAll has n callers ask the questions of order, each taking the next
// one not yet asked as soon as its previous answer is back. It returns
// every latency in milliseconds, indexed like order, and the wall time from
// the start to the last answer.
func askAll(ctx context.Context, fx *fixture, t *tally, order []int, n int) ([]float64, time.Duration) {
	lat := make([]float64, len(order))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
				lat[i] = ms(t.one(ctx, fx, order[i]))
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// spinBefore is how long before a request is due the open loop stops
// sleeping and spins: timers on a small virtual machine fire hundreds of
// microseconds late, longer than a cache hit takes.
const spinBefore = 2 * time.Millisecond

// openLoop sends the requests of order on a fixed schedule, one every
// 1/rate seconds, over n connections. Each request is timed from when it
// was due, so a stall is charged to every request it delays; how late the
// generator itself sent each one is returned beside the latencies (both in
// milliseconds, indexed like order).
func openLoop(ctx context.Context, fx *fixture, t *tally, order []int, n int, rate float64) (latency, late []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	latency, late = make([]float64, len(order)), make([]float64, len(order))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due) - spinBefore)
				for time.Until(due) > 0 {
				}
				late[i] = ms(time.Since(due))
				t.one(ctx, fx, order[i])
				latency[i] = ms(time.Since(due))
			}
		}()
	}
	wg.Wait()
	return latency, late
}

// A run alternates latency rounds (one waiting caller) and throughput
// rounds (min(nproc, 4) callers) until its seconds are up. A round asks
// whole passes until roundTarget has passed — a pass is every question of
// the list once, or on serve-zipf a fixed stretch of the drawn stream — so
// every round of a kind does the same work.
//
// This machine is a few cores of a shared host, and a neighbour's burst
// slows the same code by 10 to 50 % for anything from a fraction of a second
// to minutes. Noise only ever adds time, so each metric is taken from the
// quiet end of what the run saw, which is its best round. A slot's latency
// is its median within a latency round (one answer, where a pass fills the
// round), taken from the round where that was lowest; the latency metrics
// are percentiles of these over the slots of a pass. Throughput is that of
// the round where it was highest. The pooled percentiles as the caller saw
// them, bursts included, are printed beside them as notes.
//
// serve-zipf's p95 is the exception. Two callers sharing a throughput round
// leave the cache in a slightly different state each time, so a position
// that misses in most rounds hits in a few; its lowest latency over the
// rounds is then a hit's, and the dearest twentieth of the stretch melts
// away (p95 read 1.2 ms at three seeds in ten and 2.4 ms at the rest). So
// there p95 is taken over one round's requests, from the round where it
// was lowest. p50 is a hit either way.
const (
	roundTarget = 300 * time.Millisecond
	// minRounds is how many rounds a run needs before the best of them
	// stands for a quiet machine.
	minRounds = 5
)

// runUntraced is the measured run: set-up (timed), verification, then
// latency and throughput rounds in turn.
func runUntraced(ctx context.Context, workload string, seed int64, seconds float64, sz sizes) (*report, error) {
	rep := &report{workload: workload, seed: seed, metrics: make(map[string]float64)}
	fx, setupS, err := timedSetups(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	rep.metrics["setup_s"] = setupS
	rep.metrics["heap_mb"] = liveHeapMB()
	rep.inputHash = fx.inputHash()
	if err := verify(ctx, fx); err != nil {
		return nil, err
	}

	var (
		t        tally
		lat      []float64 // every answer of the latency rounds
		quiet    []float64 // per slot, the lowest of its round medians
		roundP95 []float64 // serve-zipf: each latency round's p95 over its requests
		rates    []float64 // each throughput round's answers per second
	)
	s := newStream(fx, seed)
	window := time.Duration(seconds * float64(time.Second))
	// A pair of rounds starts only while at least half of one still fits, so
	// a run measures for its seconds on average, not for a round more.
	var pair time.Duration
	for start := time.Now(); time.Since(start)+pair/2 < window; pair = time.Since(start) / time.Duration(len(rates)) {
		var round samples
		for r := time.Now(); time.Since(r) < roundTarget; {
			order, slots := fx.latencyPass(s)
			got, _ := askAll(ctx, fx, &t, order, 1)
			round.add(slots, got)
		}
		lat = append(lat, round.ms...)
		for slot, m := range round.medians(fx.slots()) {
			if len(rates) == 0 {
				quiet = append(quiet, m)
			}
			quiet[slot] = min(quiet[slot], m)
		}
		if fx.drawn != nil {
			roundP95 = append(roundP95, percentile(round.ms, 0.95)) // sorts round.ms, which is done with
		}
		var answers int
		var took time.Duration
		for took < roundTarget {
			order := fx.throughputPass(s)
			if fx.drawn == nil {
				// Dearest questions first, so that the callers finish
				// together and no round's rate hangs on where the shuffle
				// put a question a hundred times dearer than the rest.
				sort.SliceStable(order, func(i, j int) bool { return quiet[order[i]] > quiet[order[j]] })
			}
			_, d := askAll(ctx, fx, &t, order, clients())
			answers, took = answers+len(order), took+d
		}
		rates = append(rates, float64(answers)/took.Seconds())
	}

	if len(rates) < minRounds {
		rep.invalidate("only %d rounds of each kind, too few for the best to be a quiet one", len(rates))
	}
	rep.note("rounds of each kind: %d; latency rounds: %d answers", len(rates), len(lat))
	rep.note("quiet latency by template:%s", byTemplate(fx, quiet))
	rep.metrics["answer_p50_ms"] = percentile(append([]float64(nil), quiet...), 0.5)
	rep.metrics["answer_p95_ms"] = percentile(quiet, 0.95)
	if fx.drawn != nil {
		rep.note("p95 per latency round: %s ms", fmtAll(roundP95, "%.3f"))
		rep.metrics["answer_p95_ms"] = percentile(roundP95, 0)
	}
	rep.note("latency as the caller saw it, machine noise included: mean %.4f ms, p50 %.4f ms, p95 %.4f ms, max %.4f ms",
		mean(lat), percentile(lat, 0.5), percentile(lat, 0.95), percentile(lat, 1))
	rep.note("throughput per round, %d clients: %s /s", clients(), fmtAll(rates, "%.0f"))
	rep.metrics["throughput_qps"] = percentile(rates, 1)

	rep.attempted, rep.failed = int(t.attempted.Load()), int(t.failed.Load())
	rep.metrics["correct_share"] = float64(t.right.Load()) / float64(rep.attempted)
	rep.note("operations: %d attempted, %d failed, %d answered right (failed_share %.6f)",
		rep.attempted, rep.failed, t.right.Load(), float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}

func fmtAll(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
