package gqa

// Facade-level cache tests: byte-identity of cached answers against the
// uncached pipeline (including Explain output), strict coalescing under
// the race detector, generation invalidation on graph mutation, and the
// never-cache-degraded rule.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/dict"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// cacheMetric returns the current value of one of the process-wide cache
// counters (DefaultCounter returns the already-registered instance).
func cacheMetric(name string) int64 { return obs.DefaultCounter(name, "").Value() }

// answerSignature renders everything answer-shaped about a question
// result — labels, IRIs, boolean, failure, query graph, SPARQL, plus the
// Explain lines — but not timings, which legitimately differ per call.
func answerSignature(ans *Answer, lines []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok=%v failure=%q degraded=%q\n", ans.OK, ans.Failure, ans.Degraded)
	fmt.Fprintf(&b, "labels=%q\niris=%q\n", ans.Labels, ans.IRIs)
	if ans.Boolean != nil {
		fmt.Fprintf(&b, "boolean=%v\n", *ans.Boolean)
	}
	fmt.Fprintf(&b, "qg=%s\nsparql=%s\n", ans.QueryGraph(), ans.SPARQL)
	for _, l := range lines {
		fmt.Fprintf(&b, "explain: %s\n", l)
	}
	return b.String()
}

// TestCacheDifferentialByteIdentical runs the whole benchmark workload
// three ways over one graph and dictionary — uncached baseline, cache-cold
// (miss), and cache-warm (hit) — and requires identical signatures, Explain lines
// included: a hit must render the same matches the pipeline found, which the
// entry keeps.
func TestCacheDifferentialByteIdentical(t *testing.T) {
	sys := benchmarkSystem(t)
	qs := bench.Workload()
	ctx := context.Background()

	baseline := make([]string, len(qs))
	for i, q := range qs {
		ans, lines, err := sys.ExplainContext(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s uncached: %v", q.ID, err)
		}
		baseline[i] = answerSignature(ans, lines)
	}

	sys = NewSystem(sys.Graph(), sys.Dictionary(), Options{Cache: CacheConfig{Entries: 1024}})
	m0 := cacheMetric("gqa_cache_misses_total")
	// Cold before warm — a slice, not a map, whose iteration order is
	// random. The cold pass hits nothing, the warm pass everything.
	for p, pass := range []string{"cold", "warm"} {
		want := int64(p * len(qs))
		hBefore := cacheMetric("gqa_cache_hits_total")
		for i, q := range qs {
			ans, lines, err := sys.ExplainContext(ctx, q.Text)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, pass, err)
			}
			if got := answerSignature(ans, lines); got != baseline[i] {
				t.Errorf("%s: %s answer differs from uncached baseline:\n--- uncached\n%s--- %s\n%s",
					q.ID, pass, baseline[i], pass, got)
			}
		}
		if hits := cacheMetric("gqa_cache_hits_total") - hBefore; hits != want {
			t.Errorf("%s pass: %d hits, want %d", pass, hits, want)
		}
	}
	if misses := cacheMetric("gqa_cache_misses_total") - m0; misses != int64(len(qs)) {
		t.Errorf("cold pass misses = %d, want %d", misses, len(qs))
	}
}

// TestCacheCoalescing: K concurrent identical questions on a cold cache
// run the pipeline exactly once (one gqa_core_questions_total increment);
// the other K-1 callers coalesce onto the leader and everyone receives the
// same answer. A matcher delay holds the leader in flight long enough that
// every waiter provably arrives before it finishes.
func TestCacheCoalescing(t *testing.T) {
	sys := cachedSystem(t, 64)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 5 * time.Millisecond})

	const K = 8
	q0 := cacheMetric("gqa_core_questions_total")
	c0 := cacheMetric("gqa_cache_coalesced_total")

	var wg sync.WaitGroup
	start := make(chan struct{})
	answers := make([]*Answer, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers[i], errs[i] = sys.AnswerContext(context.Background(), runningExample)
		}(i)
	}
	close(start)
	wg.Wait()

	want := answerSignature(answers[0], nil)
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got := answerSignature(answers[i], nil); got != want {
			t.Errorf("caller %d answer differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	if runs := cacheMetric("gqa_core_questions_total") - q0; runs != 1 {
		t.Errorf("pipeline ran %d times for %d concurrent identical questions, want exactly 1", runs, K)
	}
	if co := cacheMetric("gqa_cache_coalesced_total") - c0; co != K-1 {
		t.Errorf("coalesced = %d, want %d", co, K-1)
	}
}

// TestCacheInvalidationOnMutation: a graph mutation bumps the generation,
// so the next identical question misses (the cached entry's key no longer
// matches) and runs on a re-frozen snapshot at the new generation.
func TestCacheInvalidationOnMutation(t *testing.T) {
	sys := cachedSystem(t, 64)
	ctx := context.Background()
	const q = "Who is the mayor of Berlin?"

	first, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	h0 := cacheMetric("gqa_cache_hits_total")
	if _, err := sys.AnswerContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	if d := cacheMetric("gqa_cache_hits_total") - h0; d != 1 {
		t.Fatalf("re-ask before mutation: %d hits, want 1", d)
	}

	// An unrelated triple: the answer must not change, but the entry must.
	g := sys.Graph()
	genBefore := g.Generation()
	g.AddSPO(
		g.Intern(rdf.Resource("CacheProbe")),
		g.Intern(rdf.NewIRI(rdf.RDFType)),
		g.Intern(rdf.Ontology("Thing")),
	)
	if g.Generation() == genBefore {
		t.Fatal("AddSPO did not bump the generation")
	}

	m0 := cacheMetric("gqa_cache_misses_total")
	after, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if d := cacheMetric("gqa_cache_misses_total") - m0; d != 1 {
		t.Errorf("ask after mutation: %d misses, want 1 (generation must retire the entry)", d)
	}
	if sig := answerSignature(after, nil); sig != answerSignature(first, nil) {
		t.Errorf("unrelated mutation changed the answer:\n%s\nvs\n%s", sig, answerSignature(first, nil))
	}
	if fz := g.Frozen(); fz == nil || fz.Generation() != g.Generation() {
		t.Error("answer after mutation did not re-freeze the snapshot at the new generation")
	}
}

// TestDegradedAnswerNotCached: a timeout-degraded answer reflects the
// caller's budget, not the data — it must not be stored, so the next ask
// runs the pipeline again, and an unconstrained re-ask produces the full
// answer.
func TestDegradedAnswerNotCached(t *testing.T) {
	sys := cachedSystem(t, 64)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 2 * time.Millisecond})

	ask := func() *Answer {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		ans, err := sys.AnswerContext(ctx, runningExample)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	q0 := cacheMetric("gqa_core_questions_total")
	if ans := ask(); ans.Degraded != "deadline" {
		t.Fatalf("Degraded = %q, want \"deadline\"", ans.Degraded)
	}
	if ans := ask(); ans.Degraded != "deadline" {
		t.Fatalf("re-ask Degraded = %q, want \"deadline\" (a cached degraded answer?)", ans.Degraded)
	}
	if runs := cacheMetric("gqa_core_questions_total") - q0; runs != 2 {
		t.Errorf("pipeline ran %d times for two degraded asks, want 2 (degraded answers must not be cached)", runs)
	}

	// With the budget lifted the same question must now produce — and
	// cache — the complete answer.
	faultpoint.Reset()
	full, err := sys.AnswerContext(context.Background(), runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded != "" || !full.OK {
		t.Fatalf("unconstrained re-ask: %+v, want a complete answer", full)
	}
	h0 := cacheMetric("gqa_cache_hits_total")
	if _, err := sys.AnswerContext(context.Background(), runningExample); err != nil {
		t.Fatal(err)
	}
	if d := cacheMetric("gqa_cache_hits_total") - h0; d != 1 {
		t.Errorf("complete answer was not cached (hits delta %d, want 1)", d)
	}
}

// TestDegradedAggregationNotCached: a count whose base question's search a
// deadline cut short is degraded like any other answer — not an
// aggregation failure stored for the next caller, who with no deadline must
// get the count.
func TestDegradedAggregationNotCached(t *testing.T) {
	sys, err := Open(Source{}, Options{EnableAggregation: true, Cache: CacheConfig{Entries: 8}})
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 20 * time.Millisecond})
	const q = "How many films did Antonio Banderas star in?"

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	cut, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Degraded != "deadline" {
		t.Fatalf("deadline-cut count: Degraded = %q (failure %q), want \"deadline\"", cut.Degraded, cut.Failure)
	}

	faultpoint.Reset()
	full, err := sys.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Labels) != 1 || full.Labels[0] != "3" {
		t.Fatalf("count after the deadline-cut ask: labels %q (failure %q), want [3]", full.Labels, full.Failure)
	}
}

// TestDeadShardAnswerNotCached: the store served by four loopback shard
// servers (the topology benchmark/'s match-rpc builds), the shard that owns
// Berlin dead. The pruning pass then reads "Berlin has no mayor edge" off a
// shard that did not answer and is left with no candidate: the answer must
// say shard-unavailable, not no-match, and asking again must run the
// pipeline again.
func TestDeadShardAnswerNotCached(t *testing.T) {
	const k = 4
	sys := cachedSystem(t, 64)
	g := sys.Graph()
	g.SetShards(k)
	addrs := make([]string, k)
	servers := make([]*store.ShardServer, k)
	for i := range addrs {
		var buf bytes.Buffer
		if err := store.SaveShardPart(&buf, g, i); err != nil {
			t.Fatal(err)
		}
		part, err := store.LoadShardPart(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = store.NewShardServer(part)
		go servers[i].Serve(ln) //nolint:errcheck // returns net.ErrClosed after Close
		t.Cleanup(servers[i].Close)
		addrs[i] = ln.Addr().String()
	}
	rss, err := store.DialShards(addrs, g.Terms(), store.RemoteOptions{
		CallTimeout: 200 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond, DownCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rss.Close)
	g.SetRemoteView(rss)

	berlin, ok := g.LookupIRI(rdf.Resource("Berlin").Value())
	if !ok {
		t.Fatal("no Berlin in the benchmark KB")
	}
	servers[int(berlin)%k].Close()

	q0 := cacheMetric("gqa_core_questions_total")
	for ask := 1; ask <= 2; ask++ {
		ans, err := sys.Answer("Who is the mayor of Berlin?")
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded != "shard-unavailable" {
			t.Fatalf("ask %d: Degraded = %q (failure %q, labels %v), want \"shard-unavailable\"",
				ask, ans.Degraded, ans.Failure, ans.Labels)
		}
	}
	if runs := cacheMetric("gqa_core_questions_total") - q0; runs != 2 {
		t.Errorf("pipeline ran %d times for two asks with the shard dead, want 2", runs)
	}
}

// TestMatchCapIsLoud: a class with one instance more than the matcher holds
// at once (MaxMatches, 10000), asked for by a type-only question, so every
// instance is a match tied at the cut. The answer must say it is partial
// (Degraded "matches"), be counted under that reason, and not be cached.
// Its trace records the pipeline's stages, not one span per match: served
// traced and kept by the flight recorder as degraded, it stays a handful of
// spans while Explain still lists every match. (That the reason reaches the
// wide event is internal/serve's TestDegradedReasonReachesWideEvent.)
func TestMatchCapIsLoud(t *testing.T) {
	g := store.New()
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	widget := g.Intern(rdf.Ontology("Widget"))
	g.AddSPO(widget, g.Intern(rdf.NewIRI(rdf.RDFSLabel)), g.Intern(rdf.NewLiteral("widget")))
	for i := 0; i <= 10000; i++ {
		g.AddSPO(g.Intern(rdf.Resource(fmt.Sprintf("w%05d", i))), typ, widget)
	}
	sys := NewSystem(g, dict.New(), Options{Cache: CacheConfig{Entries: 8}})

	degraded := obs.DefaultCounter("gqa_core_degraded_total", "", obs.L("reason", "matches"))
	d0, m0 := degraded.Value(), cacheMetric("gqa_cache_misses_total")
	for ask := 1; ask <= 2; ask++ {
		ans, lines, err := sys.ExplainContext(context.Background(), "Give me all widgets.")
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded != "matches" || len(ans.IRIs) != 10000 || len(lines) != 10000 {
			t.Fatalf("ask %d: Degraded = %q with %d answers and %d explain lines, want \"matches\" with the 10000 held",
				ask, ans.Degraded, len(ans.IRIs), len(lines))
		}
		if hasMatchSpan(ans.Trace) {
			t.Errorf("ask %d: the trace records match spans", ask)
		}
		if n := strings.Count(ans.Trace.JSON(), `"name":`); n > 64 {
			t.Errorf("ask %d: the trace records %d spans, want at most 64", ask, n)
		}
	}
	if d := cacheMetric("gqa_cache_misses_total") - m0; d != 2 {
		t.Errorf("two capped asks: misses delta %d, want 2 (a capped answer must not be cached)", d)
	}
	if d := degraded.Value() - d0; d != 2 {
		t.Errorf("gqa_core_degraded_total{reason=\"matches\"} moved by %d, want 2", d)
	}
}

// hasMatchSpan reports whether a trace recorded a per-match "match" span.
func hasMatchSpan(tr *obs.Trace) bool { return strings.Contains(tr.JSON(), `"name":"match"`) }

// TestCachedExplainRendersTheEntry: a traced miss, the callers coalesced
// onto it and a later hit each return the uncached run's Explain lines, and
// none of their traces records a match span — the lines come from the
// matches the answer (and the cache entry) keeps, not from the trace. A hit
// or coalesced answer understood nothing and reports so.
func TestCachedExplainRendersTheEntry(t *testing.T) {
	_, want, err := benchmarkSystem(t).Explain(runningExample)
	if err != nil || len(want) == 0 {
		t.Fatalf("uncached explain: %d lines, %v", len(want), err)
	}
	sys := cachedSystem(t, 64)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 5 * time.Millisecond})

	const K = 4
	answers := make([]*Answer, K+1)
	lines := make([][]string, K+1)
	errs := make([]error, K+1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers[i], lines[i], errs[i] = sys.ExplainContext(context.Background(), runningExample)
		}(i)
	}
	close(start)
	wg.Wait()
	answers[K], lines[K], errs[K] = sys.ExplainContext(context.Background(), runningExample)

	seen := map[string]int{}
	for i, ans := range answers {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		outs := ans.Trace.FindAttrs("cache.lookup", "outcome")
		if len(outs) != 1 {
			t.Fatalf("call %d: cache outcomes %q, want one", i, outs)
		}
		outcome := outs[0]
		seen[outcome]++
		if hasMatchSpan(ans.Trace) {
			t.Errorf("call %d (%s): the trace records match spans", i, outcome)
		}
		if !slices.Equal(lines[i], want) {
			t.Errorf("call %d (%s): explain lines differ from the uncached run:\n%q\nvs\n%q", i, outcome, lines[i], want)
		}
		if outcome != "miss" && ans.Understanding != 0 {
			t.Errorf("call %d (%s): Understanding = %v, want 0", i, outcome, ans.Understanding)
		}
	}
	if seen["miss"] != 1 || seen["coalesced"] != K-1 || seen["hit"] != 1 {
		t.Errorf("outcomes %v, want 1 miss, %d coalesced, 1 hit", seen, K-1)
	}
}

// TestHitTimesItsOwnCall: a cache hit reports its own call's time, not the
// time of the miss that stored the entry — /answer's total_ms and the CLI
// print it.
func TestHitTimesItsOwnCall(t *testing.T) {
	sys := cachedSystem(t, 64)
	faultpoint.Reset()
	defer faultpoint.Reset()
	const delay = 20 * time.Millisecond
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: delay})
	miss, err := sys.Answer(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Total < delay {
		t.Fatalf("miss Total = %v under a %v matcher delay", miss.Total, delay)
	}
	hit, err := sys.Answer(runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Total <= 0 || hit.Total >= delay || hit.Understanding != 0 {
		t.Errorf("hit: Total = %v, Understanding = %v; want a Total of the hit itself (under %v) and Understanding 0",
			hit.Total, hit.Understanding, delay)
	}
}

// TestReturnedAnswerIsPrivateCopy: mutating an answer a caller got from
// the cache must not poison the stored entry.
func TestReturnedAnswerIsPrivateCopy(t *testing.T) {
	sys := cachedSystem(t, 64)
	ctx := context.Background()
	const q = "Who is the mayor of Berlin?"

	first, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := answerSignature(first, nil)
	hit1, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit1.Labels) == 0 {
		t.Fatal("expected a labeled answer")
	}
	hit1.Labels[0] = "VANDALIZED"
	hit1.IRIs = nil

	hit2, err := sys.AnswerContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerSignature(hit2, nil); got != want {
		t.Errorf("mutating a returned answer changed the cache:\n%s\nvs\n%s", got, want)
	}
}

// TestQueryCacheAndTruncationRule: the answer cache is the answer cache —
// QueryContext on a cache-enabled system evaluates every time and touches
// no cache counter — and a row-budgeted system truncates on every ask.
func TestQueryCacheAndTruncationRule(t *testing.T) {
	base := benchmarkSystem(t)
	ctx := context.Background()
	const query = `SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }`
	counters := func() [3]int64 {
		return [3]int64{cacheMetric("gqa_cache_hits_total"), cacheMetric("gqa_cache_misses_total"), cacheMetric("gqa_cache_bypass_total")}
	}
	for _, tc := range []struct {
		budget    Budget
		truncated string
	}{{Budget{}, ""}, {Budget{MaxSPARQLRows: 1}, "rows"}} {
		sys := NewSystem(base.Graph(), base.Dictionary(), Options{Cache: CacheConfig{Entries: 64}, Budget: tc.budget})
		c0 := counters()
		for i := 0; i < 2; i++ {
			res, err := sys.QueryContext(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 || res.Truncated != tc.truncated {
				t.Fatalf("ask %d under %+v: %d rows, Truncated = %q, want %q", i, tc.budget, len(res.Rows), res.Truncated, tc.truncated)
			}
		}
		if c := counters(); c != c0 || sys.cache.Len() != 0 {
			t.Errorf("two queries under %+v moved the answer cache: counters %v → %v, %d entries", tc.budget, c0, c, sys.cache.Len())
		}
	}
}

// TestCacheSaltInvalidation: engine mutations the graph generation cannot
// see — dictionary replacement, superlative registration — must also
// retire cached answers.
func TestCacheSaltInvalidation(t *testing.T) {
	sys := cachedSystem(t, 64)
	ctx := context.Background()
	const q = "Who is the mayor of Berlin?"
	if _, err := sys.AnswerContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	if !sys.RegisterSuperlative("oldest", "http://dbpedia.org/ontology/age", true) {
		t.Fatal("RegisterSuperlative: predicate not in the benchmark KB")
	}
	m0 := cacheMetric("gqa_cache_misses_total")
	if _, err := sys.AnswerContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	if d := cacheMetric("gqa_cache_misses_total") - m0; d != 1 {
		t.Errorf("ask after RegisterSuperlative: misses delta %d, want 1 (salt must retire entries)", d)
	}
}
