// Package qcache is the generation-aware answer cache of the serving
// layer: a sharded LRU with in-flight request coalescing.
//
// Real question traffic is heavily repetitive — the same questions arrive
// again and again, and identical questions arrive concurrently. The cache
// exploits both shapes:
//
//   - Repetition: entries are keyed by (normalized input, graph mutation
//     generation, options fingerprint). The generation component (see
//     store.Graph.Generation) makes invalidation free — a mutation bumps
//     the generation, every old key stops matching, and stale entries age
//     out of the LRU without any scan or lock on the mutation path.
//
//   - Concurrency: Do coalesces duplicate in-flight work singleflight
//     style. When N identical keys arrive together, exactly one caller
//     (the leader) runs the computation; the rest block and share its
//     result. The pipeline runs once, the metrics count one question.
//
// The cache stores opaque values; callers own immutability (the facade
// stores a copy of each answer and hands copies out, so no caller can
// mutate a shared answer). Values that depend on the caller's budget rather than
// the data — degraded/truncated answers — must never be cached: compute
// functions report cacheability per result, and an uncacheable result is
// neither stored nor shared with coalesced waiters (each retries under its
// own budget).
package qcache

import (
	"container/list"
	"context"
	"sync"

	"gqa/internal/obs"
)

// Cache traffic metrics, exposed on the default registry (the /metrics
// payload). Process-wide: every cache in the process shares them, like all
// other pipeline metrics.
var (
	hitsTotal = obs.DefaultCounter("gqa_cache_hits_total",
		"Answer-cache lookups served from a stored entry.")
	missesTotal = obs.DefaultCounter("gqa_cache_misses_total",
		"Answer-cache lookups that ran the computation (cache leaders).")
	evictionsTotal = obs.DefaultCounter("gqa_cache_evictions_total",
		"Answer-cache entries evicted by the LRU capacity bound.")
	coalescedTotal = obs.DefaultCounter("gqa_cache_coalesced_total",
		"Lookups that shared an in-flight leader's result instead of recomputing.")
	bypassTotal = obs.DefaultCounter("gqa_cache_bypass_total",
		"Lookups that ran the computation without touching the cache (disabled cache, or a waiter whose context expired).")
	entriesGauge = obs.DefaultGauge("gqa_cache_entries",
		"Answer-cache entries currently stored (refreshed on scrape).")
)

// Outcome reports how one Do call was served.
type Outcome string

const (
	// Hit: the value came from a stored cache entry.
	Hit Outcome = "hit"
	// Miss: this call was the leader — it ran the computation (and stored
	// the result when cacheable).
	Miss Outcome = "miss"
	// Coalesced: the call blocked on an in-flight leader for the same key
	// and shared its result without recomputing.
	Coalesced Outcome = "coalesced"
	// Bypass: the computation ran without touching the cache — either the
	// cache is nil (disabled) or the caller's context expired while
	// waiting on a leader, so it computed under its own budget.
	Bypass Outcome = "bypass"
)

// shardCount bounds lock contention: keys spread over up to this many
// independently locked LRUs.
const shardCount = 16

// Cache is a sharded, fixed-capacity LRU with request coalescing. All
// methods are safe for concurrent use. A nil *Cache is valid and disabled:
// Do computes directly, Len reports 0.
type Cache struct {
	shards []shard
}

type shard struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // front = most recently used; values are *entry
	byKey    map[string]*list.Element // key → element in order
	inflight map[string]*flight       // key → in-progress leader computation
}

type entry struct {
	key string
	val any
}

// flight is one in-progress leader computation. done is closed when the
// leader finishes; val is shared with waiters only when shared is set (the
// result was cacheable and error-free).
type flight struct {
	done   chan struct{}
	val    any
	shared bool
}

// New returns a cache holding up to entries values (rounded up to a
// multiple of the shard count). entries <= 0 returns nil — the disabled
// cache, on which every method is a no-op.
func New(entries int) *Cache {
	if entries <= 0 {
		return nil
	}
	n := min(shardCount, entries)
	c := &Cache{shards: make([]shard, n)}
	per := (entries + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: per,
			order:    list.New(),
			byKey:    make(map[string]*list.Element),
			inflight: make(map[string]*flight),
		}
	}
	return c
}

// Len returns the number of stored entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].order.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// SyncGauge publishes the cache's current entry count to the
// gqa_cache_entries gauge. The gauge is process-wide and a cache is one
// System's, so the owner refreshes the gauge at scrape time instead of the
// cache tracking deltas that would outlive it; a nil cache publishes 0.
func (c *Cache) SyncGauge() {
	entriesGauge.Set(int64(c.Len()))
}

// shard maps a key to its shard by FNV-1a.
func (c *Cache) shard(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Do returns the cached value for key, or runs compute to produce it,
// coalescing concurrent calls for the same key onto one computation.
//
// compute returns (value, cacheable, err). The value is stored — and
// shared with coalesced waiters — only when cacheable is true and err is
// nil; a non-cacheable result (a degraded answer, a truncated row set) is
// returned to its own caller only, and each waiter retries under its own
// budget rather than adopt a result shaped by someone else's.
//
// A waiter whose ctx expires while blocked on a leader stops waiting and
// runs compute itself (Outcome Bypass): the pipeline under an expired
// context degrades promptly, which preserves the engine's degradation
// contract instead of trading it for an unbounded wait.
//
// If compute panics, the panic propagates to the leader's caller; waiters
// see a non-shared flight and retry, so a poisoned key cannot wedge them.
func (c *Cache) Do(ctx context.Context, key string, compute func() (val any, cacheable bool, err error)) (any, Outcome, error) {
	if c == nil {
		bypassTotal.Inc()
		v, _, err := compute()
		return v, Bypass, err
	}
	s := c.shard(key)
	for {
		s.mu.Lock()
		if el, ok := s.byKey[key]; ok {
			s.order.MoveToFront(el)
			v := el.Value.(*entry).val
			s.mu.Unlock()
			hitsTotal.Inc()
			return v, Hit, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
				if fl.shared {
					coalescedTotal.Inc()
					return fl.val, Coalesced, nil
				}
				// The leader's result was uncacheable (degraded) or an
				// error: compute under our own budget. Loop — we may find a
				// stored entry, a new leader, or become the leader.
				continue
			case <-ctx.Done():
				bypassTotal.Inc()
				v, _, err := compute()
				return v, Bypass, err
			}
		}
		return s.lead(key, compute)
	}
}

// lead runs compute as the leader for key. Called with s.mu held; returns
// with it released. The deferred publish also runs when compute panics, so
// waiters are always released.
func (s *shard) lead(key string, compute func() (any, bool, error)) (v any, _ Outcome, err error) {
	fl := &flight{done: make(chan struct{})}
	s.inflight[key] = fl
	s.mu.Unlock()
	missesTotal.Inc()
	cacheable := false
	defer func() {
		fl.val = v
		fl.shared = cacheable && err == nil
		s.mu.Lock()
		delete(s.inflight, key)
		if fl.shared {
			s.insert(key, v)
		}
		s.mu.Unlock()
		close(fl.done)
	}()
	v, cacheable, err = compute()
	return v, Miss, err
}

// insert stores (key, val) at the front, evicting from the back past
// capacity. Caller holds s.mu.
func (s *shard) insert(key string, val any) {
	if el, ok := s.byKey[key]; ok {
		el.Value.(*entry).val = val
		s.order.MoveToFront(el)
		return
	}
	s.byKey[key] = s.order.PushFront(&entry{key: key, val: val})
	for s.order.Len() > s.capacity {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.byKey, back.Value.(*entry).key)
		evictionsTotal.Inc()
	}
}

// Get returns the stored value for key without computing or coalescing
// (test and introspection hook; it still promotes the entry and counts a
// hit or miss).
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		s.order.MoveToFront(el)
		hitsTotal.Inc()
		return el.Value.(*entry).val, true
	}
	missesTotal.Inc()
	return nil, false
}
