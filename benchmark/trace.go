package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// The traced run. Nothing inside the program carries a span for the
// benchmark: each question is answered once through the user entry point
// and then replayed from outside, stage by stage, in the order
// core.System.AnswerContext runs them, with a span recorded here around
// every call. Counts come from MatchStats and from deltas of the
// program's own obs registry.

// Span names.
const (
	spQuestion = "question" // root of one question; covers everything below
	spFacade   = "facade.answer"
	spParse    = "nlp.parse"
	spExtract  = "core.extract"
	spBuild    = "core.build_qgraph"
	spReplay   = "linker.replay" // the Link calls of build_qgraph, run again on their own
	spLink     = "linker.link"
	spMatch    = "core.match"
	spHit      = "qcache.hit" // facade call on a key the cache holds
)

// span is one timed call. Start and End are nanoseconds since the traced
// phase began; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Question int    `json:"question"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, question int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Question: question, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's duration minus what its children cover,
// indexed like spans.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write saves the spans as JSON.
func (r *recorder) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// counters are the obs series the traced run reads, looked up by name so
// the program's registrations are reused, not duplicated.
type counters struct {
	linkCalls, linkCands, followPath              *obs.Counter
	rpcCalls, rpcRetries, rpcHedges               *obs.Counter
	cacheHits, cacheMisses, cacheCoalesced, evict *obs.Counter
	admitted                                      *obs.Counter
	rejected, shed                                []*obs.Counter
	rpcSeconds, queueWait                         *obs.Histogram
}

func lookupCounters() *counters {
	c := func(name string, l ...obs.Label) *obs.Counter { return obs.DefaultCounter(name, "", l...) }
	cs := &counters{
		linkCalls: c("gqa_linker_link_total"), linkCands: c("gqa_linker_candidates_total"),
		followPath: c("gqa_dict_followpath_total"),
		rpcCalls:   c("gqa_rpc_calls_total"), rpcRetries: c("gqa_rpc_retries_total"), rpcHedges: c("gqa_rpc_hedges_total"),
		cacheHits: c("gqa_cache_hits_total"), cacheMisses: c("gqa_cache_misses_total"),
		cacheCoalesced: c("gqa_cache_coalesced_total"), evict: c("gqa_cache_evictions_total"),
		admitted:   c("gqa_admission_admitted_total"),
		rpcSeconds: obs.DefaultHistogram("gqa_rpc_call_seconds", "", nil),
		queueWait:  obs.DefaultHistogram("gqa_admission_queue_wait_seconds", "", nil),
	}
	for _, reason := range []string{"queue-full", "deadline", "client-rate", "draining"} {
		cs.rejected = append(cs.rejected, c("gqa_admission_rejected_total", obs.L("reason", reason)))
	}
	for _, tier := range []string{"1", "2", "3"} {
		cs.shed = append(cs.shed, c("gqa_admission_shed_total", obs.L("tier", tier)))
	}
	return cs
}

func total(cs []*obs.Counter) int64 {
	var t int64
	for _, c := range cs {
		t += c.Value()
	}
	return t
}

// replayer runs the pipeline's stages from outside over one system's graph
// and dictionary. Its linker is its own copy of the index core.NewSystem
// builds, since the facade does not expose that one.
type replayer struct {
	g   *store.Graph
	d   *dict.Dictionary
	lk  *linker.Linker
	rec *recorder
}

// replay runs parse → extract → build_qgraph → (Link again per vertex) →
// match under root and returns the query graph and match statistics. A
// question the public functions cannot replay — the engine treats it as
// aggregation, or it has no relation and takes the type-only fallback —
// gets its parse span only and ok=false.
func (r *replayer) replay(root, qid int, text string, aggregation bool) (q *core.QueryGraph, stats core.MatchStats, ok bool) {
	id := r.rec.begin(spParse, root, qid)
	y, err := nlp.Parse(text)
	r.rec.end(id)
	if err != nil || aggregation {
		return nil, stats, false
	}
	id = r.rec.begin(spExtract, root, qid)
	rels := core.ExtractRelations(y, r.d, core.ExtractOptions{})
	r.rec.end(id)
	if len(rels) == 0 {
		return nil, stats, false
	}
	id = r.rec.begin(spBuild, root, qid)
	q = core.BuildQueryGraph(y, rels, r.lk, core.BuildOptions{})
	r.rec.end(id)

	replay := r.rec.begin(spReplay, root, qid)
	for i := range q.Vertices {
		if text := q.Vertices[i].Arg.Text; !pureWh(text) {
			id = r.rec.begin(spLink, replay, qid)
			r.lk.Link(text, linkLimit)
			r.rec.end(id)
		}
	}
	r.rec.end(replay)

	for i := range q.Vertices {
		if v := &q.Vertices[i]; !v.Unconstrained && len(v.Candidates) == 0 {
			return q, stats, true // entity-linking failure: the engine stops before the search
		}
	}
	id = r.rec.begin(spMatch, root, qid)
	_, stats = core.FindTopKMatches(r.g, q, core.MatchOptions{})
	r.rec.end(id)
	return q, stats, true
}

// linkLimit is the candidate cap BuildQueryGraph links with by default.
const linkLimit = 10

// pureWh mirrors the query-graph builder's test for a pure wh-argument,
// the one kind of vertex it never links.
func pureWh(text string) bool {
	switch strings.ToLower(text) {
	case "who", "whom", "what", "which", "where", "when", "how", "whose", "that":
		return true
	}
	return false
}

// durationsUs collects the duration of every span of the given name.
func (r *recorder) durationsUs(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// countingView counts the reads the matcher makes of a frozen view and the
// edges they return. It hides any optional side-interface of the view it
// wraps, so it is only used over a plain snapshot.
type countingView struct {
	store.View
	calls, edges int64
}

func (c *countingView) Match(s, p, o store.ID, fn func(store.Spo) bool) {
	c.calls++
	c.View.Match(s, p, o, func(t store.Spo) bool {
		c.edges++
		return fn(t)
	})
}
func (c *countingView) Has(s, p, o store.ID) bool { c.calls++; return c.View.Has(s, p, o) }
func (c *countingView) HasAdjacentPred(v, p store.ID) bool {
	c.calls++
	return c.View.HasAdjacentPred(v, p)
}
func (c *countingView) OutPred(v, p store.ID) []store.Edge {
	e := c.View.OutPred(v, p)
	c.calls++
	c.edges += int64(len(e))
	return e
}
func (c *countingView) InPred(v, p store.ID) []store.Edge {
	e := c.View.InPred(v, p)
	c.calls++
	c.edges += int64(len(e))
	return e
}
func (c *countingView) OutPredDegree(v, p store.ID) int { c.calls++; return c.View.OutPredDegree(v, p) }
func (c *countingView) InPredDegree(v, p store.ID) int  { c.calls++; return c.View.InPredDegree(v, p) }
func (c *countingView) OutDegree(v store.ID) int        { c.calls++; return c.View.OutDegree(v) }
func (c *countingView) InDegree(v store.ID) int         { c.calls++; return c.View.InDegree(v) }
func (c *countingView) Degree(v store.ID) int           { c.calls++; return c.View.Degree(v) }

// matchP50 times the search alone on every replayable question against one
// graph's current read surface and returns the median in microseconds. Each
// question's time is its best of reps, to keep the comparison between shapes
// free of stray pauses.
func matchP50(g *store.Graph, parallelism, reps int, graphs []*core.QueryGraph) float64 {
	var xs []float64
	for _, q := range graphs {
		if q == nil {
			continue
		}
		best := 0.0
		for r := 0; r < reps; r++ {
			start := time.Now()
			core.FindTopKMatches(g, q, core.MatchOptions{Parallelism: parallelism})
			if d := us(time.Since(start)); r == 0 || d < best {
				best = d
			}
		}
		xs = append(xs, best)
	}
	return percentile(xs, 0.5)
}

// runTraced is the per-layer run: same inputs, one client.
func runTraced(ctx context.Context, workload string, seed int64, seconds float64, sz sizes) (*report, error) {
	rep := &report{workload: workload, seed: seed, traced: true, metrics: make(map[string]float64)}
	m := rep.metrics // a metric whose layer the workload does not use stays unset and prints as 0
	cs := lookupCounters()

	fx, err := newFixture(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	rep.inputHash = fx.inputHash()
	m["store.freeze_ms"] = fx.parts.freezeMs
	m["linker.index_build_ms"] = fx.parts.indexBuildMs
	m["dict.mine_ms"] = fx.parts.mineMs
	m["store.shard_export_load_ms"] = fx.parts.shardExportLoadMs
	m["store.snapshot_mb"] = float64(obs.DefaultGauge("gqa_store_snapshot_bytes", "").Value()) / (1 << 20)
	if err := verify(ctx, fx); err != nil {
		return nil, err
	}
	g := fx.sys.Graph()
	if fx.minePhrases != nil {
		m["dict.mine_ms"] = msSince(func() { mineSampled(g, rand.New(rand.NewSource(seed)), fx.minePhrases) })
	}
	// local is the in-process K=1 graph of the same KB: the served graph
	// itself, or on match-rpc the copy the reference answers came from. The
	// replay's linker indexes it, since indexing reads the graph and must
	// not go over the wire.
	local := fx.reference.Graph()
	rec := newRecorder()
	rep.spans = rec
	rp := &replayer{g: g, d: fx.sys.Dictionary(), lk: linker.New(local, linker.Options{}), rec: rec}

	// Untraced baseline, one client: what the user entry point costs and
	// allocates with no spans around it. On serve-zipf it is the open loop
	// of the measured run, where cache and admission counters mean
	// something.
	var t tally
	var before, after runtime.MemStats
	hits0, miss0, coal0, evict0 := cs.cacheHits.Value(), cs.cacheMisses.Value(), cs.cacheCoalesced.Value(), cs.evict.Value()
	adm0, rej0, shed0 := cs.admitted.Value(), total(cs.rejected), total(cs.shed)
	wait := startHist(cs.queueWait)
	baseWindow := time.Duration(seconds / 4 * float64(time.Second))
	runtime.ReadMemStats(&before)
	baseStart := time.Now()
	s := newStream(fx, seed)
	var base []float64
	if fx.openRate > 0 {
		var late []float64
		base, late = openLoop(ctx, fx, &t, s.take(int(baseWindow.Seconds()*fx.openRate)), clients(), fx.openRate)
		for i := range late {
			base[i] -= late[i] // the round trip alone, as the traced loop times it
		}
		m["serve.generator_late_us_p95"] = percentile(late, 0.95) * 1e3
		if lateP95, p50 := percentile(late, 0.95), percentile(append([]float64(nil), base...), 0.5); lateP95 > p50 {
			// The generator measured its own stalls (on a shared machine,
			// usually a neighbour's burst), not the server.
			rep.note("OPEN LOOP LATE: generator p95 lateness %.3f ms exceeds the p50 latency %.3f ms; this run's open-loop figures (facade.answer_p99_ms, admission.*, qcache.*_share) are not to be used", lateP95, p50)
		}
	} else {
		for time.Since(baseStart) < baseWindow {
			got, _ := askAll(ctx, fx, &t, s.take(len(fx.qs)), 1)
			base = append(base, got...)
		}
	}
	baseElapsed := time.Since(baseStart)
	runtime.ReadMemStats(&after)
	wait.stop()
	if len(base) == 0 {
		return nil, fmt.Errorf("%s: the baseline phase answered no question", workload)
	}
	m["facade.allocs_per_question"] = float64(after.Mallocs-before.Mallocs) / float64(len(base))
	m["facade.bytes_per_question"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(base))
	if enoughFor(len(base), 0.99) {
		m["facade.answer_p99_ms"] = percentile(base, 0.99)
	}
	hits, misses, coalesced := float64(cs.cacheHits.Value()-hits0), float64(cs.cacheMisses.Value()-miss0), float64(cs.cacheCoalesced.Value()-coal0)
	m["qcache.hit_share"] = ratio(hits, hits+misses+coalesced)
	m["qcache.coalesced_share"] = ratio(coalesced, hits+misses+coalesced)
	m["qcache.evictions_per_s"] = float64(cs.evict.Value()-evict0) / baseElapsed.Seconds()
	admitted, rejected := float64(cs.admitted.Value()-adm0), float64(total(cs.rejected)-rej0)
	m["admission.queue_wait_us_p95"] = wait.quantileUs(0.95)
	m["admission.shed_share"] = ratio(float64(total(cs.shed)-shed0), admitted)
	m["admission.rejected_share"] = ratio(rejected, admitted+rejected)
	rep.note("baseline: %d untraced answers in %.1f s, mean %.4f ms", len(base), baseElapsed.Seconds(), mean(base))

	// Traced loop, one client: the user entry point, then the replay.
	graphs := make([]*core.QueryGraph, len(fx.qs))
	var (
		facadeUs, stageUs, overheadUs, httpOverUs []float64
		linkCalls, linkCands, followPaths         int64
		rpcCalls, rpcRetries, rpcHedges           int64
		steps, seeds, rounds, found, kept         int64
		asked, replayed, skipped                  int
	)
	rpc := startHist(cs.rpcSeconds)
	window := time.Duration(seconds / 2 * float64(time.Second))
	runtime.ReadMemStats(&before)
	for start := time.Now(); time.Since(start) < window; asked++ {
		qi := s.next()
		q := &fx.qs[qi]
		root := rec.begin(spQuestion, 0, asked)

		// The call that runs second finds the caches warm, so outside HTTP
		// (where the hit-or-miss test needs the entry point first) the two
		// take turns going first and the advantage cancels in the sums.
		var d time.Duration
		missBefore := cs.cacheMisses.Value()
		entryPoint := func() {
			l0, c0, f0 := cs.linkCalls.Value(), cs.linkCands.Value(), cs.followPath.Value()
			id := rec.begin(spFacade, root, asked)
			d = t.one(ctx, fx, qi)
			rec.end(id)
			linkCalls += cs.linkCalls.Value() - l0
			linkCands += cs.linkCands.Value() - c0
			followPaths += cs.followPath.Value() - f0
		}
		replayFirst := !fx.overHTTP && asked%2 == 1
		if !replayFirst {
			entryPoint()
		}
		if fx.overHTTP && cs.cacheMisses.Value() == missBefore {
			// A cache hit: no pipeline ran. Time the facade on the same
			// warm key; the rest of the round trip is HTTP and admission.
			id := rec.begin(spHit, root, asked)
			fx.sys.AnswerContext(ctx, q.text) //nolint:errcheck // answered a moment ago
			hit := rec.end(id)
			httpOverUs = append(httpOverUs, us(d-hit))
			rec.end(root)
			continue
		}
		r0, y0, h0 := cs.rpcCalls.Value(), cs.rpcRetries.Value(), cs.rpcHedges.Value()
		first := len(rec.spans)
		qg, stats, ok := rp.replay(root, asked, q.text, q.failure == "aggregation")
		last := len(rec.spans)
		rpcCalls += cs.rpcCalls.Value() - r0
		rpcRetries += cs.rpcRetries.Value() - y0
		rpcHedges += cs.rpcHedges.Value() - h0
		if replayFirst {
			entryPoint()
		}
		rec.end(root)
		if !ok {
			skipped++
			continue
		}
		replayed++
		graphs[qi] = qg
		steps, seeds, rounds = steps+stats.Steps, seeds+stats.Seeds, rounds+int64(stats.Rounds)
		found, kept = found+stats.MatchesFound, kept+int64(stats.MatchesKept)
		stage := 0.0
		for _, sp := range rec.spans[first:last] {
			switch sp.Name {
			case spParse, spExtract, spBuild, spMatch:
				stage += float64(sp.End-sp.Start) / 1e3
			}
		}
		facadeUs, stageUs, overheadUs = append(facadeUs, us(d)), append(stageUs, stage), append(overheadUs, us(d)-stage)
	}
	runtime.ReadMemStats(&after)
	rpc.stop()
	if replayed == 0 {
		return nil, fmt.Errorf("%s: the traced loop replayed no question", workload)
	}
	rep.attempted, rep.failed = int(t.attempted.Load()), int(t.failed.Load())
	rep.note("traced loop: %d questions in %.1f s, %d replayed, %d not replayable", asked, window.Seconds(), replayed, skipped)

	nq := float64(replayed)
	match, link := rec.durationsUs(spMatch), rec.durationsUs(spLink)
	m["nlp.parse_us_p50"] = percentile(rec.durationsUs(spParse), 0.5)
	m["core.extract_us_p50"] = percentile(rec.durationsUs(spExtract), 0.5)
	// build_qgraph's own time: its span less the Link calls it made, priced
	// by running them again on their own.
	linksOf := make(map[int]float64)
	for _, sp := range rec.spans {
		if sp.Name == spLink {
			linksOf[sp.Question] += float64(sp.End-sp.Start) / 1e3
		}
	}
	var buildSelf []float64
	for _, sp := range rec.spans {
		if sp.Name == spBuild {
			buildSelf = append(buildSelf, float64(sp.End-sp.Start)/1e3-linksOf[sp.Question])
		}
	}
	m["core.build_qgraph_self_us_p50"] = percentile(buildSelf, 0.5)
	m["facade.overhead_us_p50"] = percentile(overheadUs, 0.5)
	m["facade.stage_sum_ratio"] = ratio(sum(stageUs), sum(facadeUs))
	m["facade.trace_overhead_ratio"] = ratio(mean(rec.durationsUs(spFacade))/1e3, mean(base))
	m["facade.replay_skipped_share"] = ratio(float64(skipped), float64(replayed+skipped))
	var harness time.Duration
	for i, self := range rec.selfTimes() {
		if rec.spans[i].Name == spQuestion {
			harness += self
		}
	}
	rep.note("time inside question spans but outside any stage (the harness itself): %.1f us per question", us(harness)/float64(asked))

	m["linker.link_us_p50"] = percentile(link, 0.5)
	m["linker.link_us_p95"] = percentile(link, 0.95)
	m["linker.calls_per_question"] = float64(linkCalls) / nq
	m["linker.candidates_per_call"] = ratio(float64(linkCands), float64(linkCalls))
	m["linker.share"] = ratio(sum(link), sum(facadeUs))

	m["core.match_us_p50"] = percentile(match, 0.5)
	m["core.match_us_p95"] = percentile(match, 0.95)
	m["core.match_steps_per_question"] = float64(steps) / nq
	m["core.match_seeds_per_question"] = float64(seeds) / nq
	m["core.match_rounds_per_question"] = float64(rounds) / nq
	m["core.match_useful_share"] = ratio(float64(kept), float64(found))
	m["core.share"] = ratio(sum(match), sum(facadeUs))
	m["dict.followpath_per_question"] = float64(followPaths) / nq

	m["store.rpc_calls_per_question"] = float64(rpcCalls) / nq
	m["store.rpc_retries_per_question"] = float64(rpcRetries) / nq
	m["store.rpc_hedges_per_question"] = float64(rpcHedges) / nq
	m["store.rpc_call_us_mean"] = ratio(rpc.sum*1e6, float64(rpc.n))
	m["store.rpc_call_us_p50"] = rpc.quantileUs(0.5)
	m["store.rpc_call_us_p95"] = rpc.quantileUs(0.95)

	m["qcache.hit_us_p50"] = percentile(rec.durationsUs(spHit), 0.5)
	m["serve.http_overhead_us_p50"] = percentile(httpOverUs, 0.5)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	// The same searches in the other deployment shapes.
	const reps = 3
	localP50 := matchP50(local, 0, reps, graphs)
	p1 := matchP50(local, 1, reps, graphs)
	m["core.match_p1_us_p50"] = p1
	m["core.match_parallel_speedup"] = ratio(p1, localP50)
	if fx.remote {
		m["store.rpc_local_ratio"] = ratio(matchP50(g, 0, 1, graphs), localP50)
		// At one worker no two calls overlap, so the time inside RPC calls
		// is a share of the search's wall time.
		seq := startHist(cs.rpcSeconds)
		start := time.Now()
		matchP50(g, 1, 1, graphs)
		elapsed := time.Since(start)
		seq.stop()
		m["store.rpc_share"] = ratio(seq.sum, elapsed.Seconds())
	}
	if sn, ok := local.FrozenView().(*store.Snapshot); ok {
		// A plain snapshot has no optional side-interface to hide, so the
		// counting decorator can stand in for it. One worker: the counts
		// are the same at every parallelism and need no synchronisation.
		var calls, edges, asks float64
		for _, q := range graphs {
			if q != nil {
				cv := &countingView{View: sn}
				core.FindTopKMatches(local, q, core.MatchOptions{View: cv, Parallelism: 1})
				calls, edges, asks = calls+float64(cv.calls), edges+float64(cv.edges), asks+1
			}
		}
		m["store.calls_per_question"] = ratio(calls, asks)
		m["store.edges_per_question"] = ratio(edges, asks)
	}

	// A copy of the KB serves the unfrozen and four-shard shapes and the
	// re-freeze after one added triple; mutating it disturbs none of the
	// systems above.
	og, err := copyGraph(g)
	if err != nil {
		return nil, err
	}
	m["core.match_mutable_us_p50"] = matchP50(og, 0, reps, graphs)
	og.Freeze()
	added := rdf.T(rdf.Resource("benchmark_added"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("benchmark added"))
	if err := og.Add(added); err != nil {
		return nil, err
	}
	m["store.refreeze_one_add_ms"] = msSince(func() { og.Freeze() })
	og.SetShards(4)
	og.Freeze()
	m["core.match_k4_us_p50"] = matchP50(og, 0, reps, graphs)
	return rep, nil
}
