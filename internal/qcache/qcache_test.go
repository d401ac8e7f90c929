package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func counters() (hits, misses, evictions, coalesced int64) {
	return hitsTotal.Value(), missesTotal.Value(), evictionsTotal.Value(), coalescedTotal.Value()
}

func TestDoHitMissStore(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	h0, m0, _, _ := counters()

	computes := 0
	fn := func() (any, bool, error) { computes++; return "v1", true, nil }

	v, out, err := c.Do(ctx, "k", fn)
	if err != nil || v != "v1" || out != Miss {
		t.Fatalf("first Do = (%v, %v, %v), want (v1, miss, nil)", v, out, err)
	}
	v, out, err = c.Do(ctx, "k", fn)
	if err != nil || v != "v1" || out != Hit {
		t.Fatalf("second Do = (%v, %v, %v), want (v1, hit, nil)", v, out, err)
	}
	if computes != 1 {
		t.Errorf("compute ran %d times, want 1", computes)
	}
	h1, m1, _, _ := counters()
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Errorf("hit/miss deltas = %d/%d, want 1/1", h1-h0, m1-m0)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestUncacheableNotStored(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	computes := 0
	fn := func() (any, bool, error) { computes++; return "degraded", false, nil }
	for i := 0; i < 3; i++ {
		v, out, err := c.Do(ctx, "k", fn)
		if err != nil || v != "degraded" || out != Miss {
			t.Fatalf("Do #%d = (%v, %v, %v), want (degraded, miss, nil)", i, v, out, err)
		}
	}
	if computes != 3 {
		t.Errorf("compute ran %d times, want 3 (uncacheable results are never stored)", computes)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// stored returns the value c holds for key, without promoting the entry or
// counting a hit or a miss.
func stored(c *Cache, key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		return el.Value.(*entry).val, true
	}
	return nil, false
}

func TestErrorNotStored(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	wantErr := errors.New("boom")
	v, out, err := c.Do(ctx, "k", func() (any, bool, error) { return nil, true, wantErr })
	if !errors.Is(err, wantErr) || out != Miss || v != nil {
		t.Fatalf("Do = (%v, %v, %v), want (nil, miss, boom)", v, out, err)
	}
	if _, ok := stored(c, "k"); ok {
		t.Error("errored computation was stored")
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 1 forces a single shard of capacity 1: each insert evicts
	// the previous entry.
	c := New(1)
	ctx := context.Background()
	_, _, e0, _ := counters()
	mk := func(v string) func() (any, bool, error) {
		return func() (any, bool, error) { return v, true, nil }
	}
	c.Do(ctx, "a", mk("va"))
	c.Do(ctx, "b", mk("vb")) // evicts a
	if _, ok := stored(c, "a"); ok {
		t.Error("entry a survived past capacity")
	}
	if v, ok := stored(c, "b"); !ok || v != "vb" {
		t.Errorf("entry b = (%v, %v), want (vb, true)", v, ok)
	}
	_, _, e1, _ := counters()
	if e1-e0 != 1 {
		t.Errorf("eviction delta = %d, want 1", e1-e0)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestLRUPromotion(t *testing.T) {
	// One shard (capacity 2): touching the older entry must save it from
	// the next eviction.
	c := New(2)
	c.shards = c.shards[:1]
	c.shards[0].capacity = 2
	ctx := context.Background()
	mk := func(v string) func() (any, bool, error) {
		return func() (any, bool, error) { return v, true, nil }
	}
	c.Do(ctx, "a", mk("va"))
	c.Do(ctx, "b", mk("vb"))
	c.Do(ctx, "a", mk("never")) // hit: promotes a
	c.Do(ctx, "c", mk("vc"))    // evicts b, the least recently used
	if _, ok := stored(c, "b"); ok {
		t.Error("lru entry b survived eviction")
	}
	if v, ok := stored(c, "a"); !ok || v != "va" {
		t.Errorf("promoted entry a = (%v, %v), want (va, true)", v, ok)
	}
}

// TestCoalescing is the strict duplicate-suppression property: K
// concurrent identical keys run the computation exactly once — one Miss,
// K-1 Coalesced — and every caller sees the same value.
func TestCoalescing(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	const K = 16
	_, m0, _, c0 := counters()

	var computes atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{})
	fn := func() (any, bool, error) {
		computes.Add(1)
		close(entered) // leader is in flight
		<-release
		return "shared", true, nil
	}

	outcomes := make(chan Outcome, K)
	vals := make(chan any, K)
	var wg, started sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, err := c.Do(ctx, "k", fn)
		if err != nil {
			t.Errorf("leader Do: %v", err)
		}
		outcomes <- out
		vals <- v
	}()
	<-entered // leader holds the flight; everyone else must coalesce
	for i := 1; i < K; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			v, out, err := c.Do(ctx, "k", fn)
			if err != nil {
				t.Errorf("waiter Do: %v", err)
			}
			outcomes <- out
			vals <- v
		}()
	}
	// Release the leader only after every waiter goroutine is running and
	// has had ample time to park on the flight. A waiter scheduled after
	// the leader finished would read the stored entry as a Hit instead of
	// coalescing — the strict 1-miss/K-1-coalesced assertion below would
	// catch that, so the sleep doubles as the flake guard.
	started.Wait()
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	counts := map[Outcome]int{}
	for i := 0; i < K; i++ {
		counts[<-outcomes]++
		if v := <-vals; v != "shared" {
			t.Errorf("caller got %v, want shared", v)
		}
	}
	if computes.Load() != 1 {
		t.Errorf("compute ran %d times, want exactly 1", computes.Load())
	}
	if counts[Miss] != 1 || counts[Coalesced] != K-1 {
		t.Errorf("outcomes = %v, want 1 miss and %d coalesced", counts, K-1)
	}
	_, m1, _, c1 := counters()
	if m1-m0 != 1 || c1-c0 != K-1 {
		t.Errorf("miss/coalesced deltas = %d/%d, want 1/%d", m1-m0, c1-c0, K-1)
	}
}

// TestUncacheableWaitersRetry: waiters never adopt a leader's uncacheable
// (budget-shaped) result; each recomputes under its own budget.
func TestUncacheableWaitersRetry(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	var computes atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	fn := func() (any, bool, error) {
		n := computes.Add(1)
		if n == 1 {
			entered <- struct{}{}
			<-release
		}
		return fmt.Sprintf("run-%d", n), false, nil
	}
	done := make(chan Outcome, 2)
	go func() {
		_, out, _ := c.Do(ctx, "k", fn)
		done <- out
	}()
	<-entered
	go func() {
		_, out, _ := c.Do(ctx, "k", fn)
		done <- out
	}()
	close(release)
	o1, o2 := <-done, <-done
	if computes.Load() != 2 {
		t.Errorf("compute ran %d times, want 2 (waiter must retry an uncacheable result)", computes.Load())
	}
	if o1 != Miss || o2 != Miss {
		t.Errorf("outcomes = %v, %v, want miss, miss", o1, o2)
	}
}

// TestWaiterContextExpiry: a waiter whose context dies while blocked on a
// leader computes itself (Bypass) instead of waiting forever.
func TestWaiterContextExpiry(t *testing.T) {
	c := New(8)
	release := make(chan struct{})
	entered := make(chan struct{})
	leaderFn := func() (any, bool, error) {
		close(entered)
		<-release
		return "leader", true, nil
	}
	go c.Do(context.Background(), "k", leaderFn)
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, out, err := c.Do(ctx, "k", func() (any, bool, error) { return "own", true, nil })
	if err != nil || v != "own" || out != Bypass {
		t.Errorf("expired waiter Do = (%v, %v, %v), want (own, bypass, nil)", v, out, err)
	}
	close(release)
}

func TestNilCache(t *testing.T) {
	var c *Cache
	v, out, err := c.Do(context.Background(), "k", func() (any, bool, error) { return 7, true, nil })
	if err != nil || v != 7 || out != Bypass {
		t.Errorf("nil-cache Do = (%v, %v, %v), want (7, bypass, nil)", v, out, err)
	}
	if c.Len() != 0 {
		t.Errorf("nil-cache Len = %d, want 0", c.Len())
	}
	if _, ok := stored(c, "k"); ok {
		t.Error("nil cache reported a value")
	}
	if New(0) != nil {
		t.Error("New(0) should return the nil (disabled) cache")
	}
}

// TestConcurrentHammer drives many goroutines over overlapping keys under
// the race detector: values must always be the one stored for their key.
func TestConcurrentHammer(t *testing.T) {
	c := New(32)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				want := "v-" + key
				v, _, err := c.Do(ctx, key, func() (any, bool, error) {
					return want, i%3 != 0, nil // mix cacheable and not
				})
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v != want {
					t.Errorf("Do(%s) = %v, want %v", key, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
