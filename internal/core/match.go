package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"gqa/internal/budget"
	"gqa/internal/dict"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// Match is a subgraph match of Q^S over the RDF graph (Definition 3): an
// injective assignment of query vertices to graph entities, with the
// predicate path chosen per edge and the score of Definition 6.
type Match struct {
	Assignment []store.ID  // per query vertex: the matched entity u_i
	Via        []store.ID  // per vertex: the class c_i justifying it, or store.None
	EdgePaths  []dict.Path // per query edge: the chosen predicate path
	EdgeRev    uint64      // bit ei: edge ei's path was matched running To → From (Definition 3 allows either); edges past 63 have no bit
	Score      float64     // Definition 6 (log-space, ≤ 0)
}

// MatchOptions tunes the top-k search.
type MatchOptions struct {
	// TopK is k, counted in matches: the search returns every match whose
	// score is at least the score of the k-th best match (all of them when
	// fewer than k exist) — the top k, ties at the cut included. Zero means
	// 10, the paper's k.
	TopK int
	// DisablePruning turns off the neighborhood-based candidate filter of
	// §4.2.2 (ablation).
	DisablePruning bool
	// Exhaustive disables Algorithm 3's threshold in both places it acts —
	// the stopping rule between rounds and the score bound inside a seed —
	// so every candidate is scanned and every match enumerated (ablation,
	// and what the brute-force oracle is compared with). What is returned
	// follows the same top-k rule.
	Exhaustive bool
	// Parallelism is accepted and ignored: the search runs on the caller's
	// goroutine, one seed after another. The field outlives the worker pool
	// it sized only because benchmark/trace.go sets it (twice, for
	// core.match_p1_us_p50 and core.match_parallel_speedup) and only a
	// benchmark PR may edit that directory; it goes with those metrics
	// (ROADMAP item 7(f)).
	Parallelism int
	// Budget bounds the search (wall-clock deadline, cancellation, step and
	// candidate-expansion limits). Nil means unlimited; the search then
	// behaves bit-identically to the budget-free engine. When the budget is
	// exhausted the search stops where it stands and harvest returns the
	// best partial top-k found so far, with MatchStats.Truncated naming the
	// reason.
	Budget *budget.Tracker
	// Span, when non-nil, receives the search's trace: per-round child
	// spans (seed counts, result-set record/keep deltas, round timing) and
	// whole-search attributes. Nil — the default — disables tracing with
	// zero overhead.
	Span *obs.Span
	// View pins the frozen view the search reads. Nil — the default —
	// captures the graph's current view at search start (freezing first if
	// the graph mutated since its last snapshot). A caller that pins a view
	// explicitly gets a search that never touches the graph at all, so it
	// is safe to run concurrently with Add/Remove on the same graph (the
	// concurrent-mutation tests rely on this).
	View store.View
}

// maxHeldMatches caps the matches a search holds at once. Only matches at
// or above the cut are held, so the cap is met only by more than
// maxHeldMatches matches tied at the cut; the search then ends with
// MatchStats.Truncated = "matches".
const maxHeldMatches = 10000

func (o *MatchOptions) defaults() {
	if o.TopK <= 0 {
		o.TopK = 10
	}
}

// matcher carries the state of one top-k search, which runs on one
// goroutine: the plan (candidate pruning, adjacency, score terms), the
// partial assignment st, the result set and the effort counters.
type matcher struct {
	// view is the frozen view captured once at search start and the only
	// graph surface the search reads (see MatchOptions.View): neighborhood
	// pruning, per-predicate degrees for selectivity ordering and path
	// traversal all go through it. bound is the same view as a
	// *store.Snapshot scoped to this request — set when the view is one
	// (not a test decorator), so remote reads inherit the request budget —
	// and nil otherwise; its methods are nil-safe no-ops on local parts.
	view  store.View
	bound *store.Snapshot
	// hints is whether bound fetches over the wire (a request-bound
	// snapshot over remote parts), decided once here: then, and only then,
	// the search tells it each frontier's reads ahead (the hint* methods) so
	// they cross in one frame per shard. On local parts no hint is built.
	hints bool
	// walks, per query edge, is what reachable walks over it: every
	// multi-step candidate path in both orientations. Built with hints, and
	// read only by hintSeeds, for a class's many seeds.
	walks [][]dict.Path
	q     *QueryGraph
	opts  MatchOptions

	cands [][]VertexCandidate // pruned candidate lists per vertex
	adj   [][]int             // vertex → incident edge indices
	// rev[ei][ci] is edge ei's candidate path ci read backwards, the other
	// orientation reachable walks: built once per search, not per walk.
	rev [][]dict.Path

	// The terms of Definition 6, taken once per search. vlog[vi][i] is what
	// binding vertex vi through cands[vi][i] adds to a match's score and
	// elog[ei][i] what realizing edge ei by its i-th candidate path adds;
	// vbest and ebest are the largest term of each vertex and edge, what an
	// unbound slot can still hope for (0 for an unconstrained vertex). A
	// searchState starts from vbest/ebest and overwrites a slot as it is
	// bound, so one sum (searchState.total) is the score of a complete
	// assignment and the upper bound of a partial one.
	vlog, elog   [][]float64
	vbest, ebest []float64
	// bounded is whether the search cuts a branch whose bound is below the
	// result set's cut (everywhere but under MatchOptions.Exhaustive).
	bounded bool

	// st is the search's one partial assignment, sized once the score terms
	// are known and reset (state) by each of its users in turn: every seed,
	// and between seeds hintSeeds and thresholdReached.
	st  searchState
	res resultSet // the top-k held so far

	probes int   // anchored searches performed (stats)
	seeds  int64 // runSeed calls (class candidates unrolled)
	steps  int64 // extend() invocations
	cuts   int64 // branches skipped because their bound was below the cut

	// The rest is working memory a pooled matcher keeps from one search to
	// the next: the anchors and their costs, a round's seeds, the targets
	// of the walks at each extend depth, the edges finish fills, and the
	// path walker with its route and dedupe set.
	anchors, anchorCost []int
	tasks               []seedTask
	frontier            [][]store.ID
	depth               int
	filled              []int
	walker              dict.Walker
}

// matcherPool keeps matchers between searches, with the working memory they
// grew, so that a search allocates only the matches it returns.
var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// poolMaxHeld is the most entries any buffer of a pooled matcher may have
// grown to hold: the result set's rows, a round's seeds, a depth's targets
// and the walker's dedupe set. A matcher with a larger one is left to the
// collector. On the qald, yago, nl-scale (20 000 people) and cinema
// questions none of them passes 128, so every workload question's matcher
// is kept; an all-wh question that ties thousands (maxHeldMatches), or a
// class with thousands of instances, does not pin that memory in the pool.
const poolMaxHeld = 1024

// grow returns s resized to n elements, reusing its array when it is large
// enough and keeping the elements it had, which for a slice of slices are
// buffers the caller reuses in turn.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// MatchStats reports search effort, used by the ablation benchmarks and
// surfaced on trace spans. The search tree is one and its order is fixed,
// so for a non-truncated search every field is identical at every store
// layout.
type MatchStats struct {
	AnchorsProbed  int
	CandidatesKept int
	CandidatesCut  int // removed by neighborhood pruning
	Rounds         int
	EarlyStopped   bool
	// Seeds counts seed explorations run (anchored searches after class
	// candidates unroll to their instances).
	Seeds int64
	// Steps counts extend() invocations.
	Steps int64
	// MatchesFound counts complete matches offered to the result set
	// (record attempts, before dedup and before the cut).
	MatchesFound int64
	// MatchesKept is the number of matches held at the end: the size of
	// the returned set.
	MatchesKept int
	// Truncated is why the search was cut short — a budget-exhaustion
	// reason ("deadline", "canceled", "steps", "candidates"), a failed
	// remote read ("shard-unavailable"), or "matches" when the maxHeldMatches
	// cap refused a match — and "" for a complete search. A truncated
	// search still returns the best partial top-k discovered before it
	// stopped.
	Truncated string
}

// FindTopKMatches runs Algorithm 3: sort candidate lists, advance cursors
// in round-robin, run an exploration-based (VF2-style) subgraph search from
// every cursor candidate, and stop once the score of the k-th best match
// found (the cut) beats the upper bound of Equation 3. The same threshold
// acts inside a seed: a partial assignment whose best possible score is
// below the cut is not extended, and a candidate path that cannot reach the
// cut is not walked. It returns the top k matches, ties at the cut
// included.
//
// Each round's cursor candidates expand to seed entities, explored one
// after another on the caller's goroutine in the order they were expanded.
// Every vertex no query edge reaches from the bound ones — a seed, the
// first vertex of a disconnected component, the first vertex of an all-wh
// question — is bound the same way (startAt). The search tree
// and the order it is walked in depend only on the query and on pure graph
// statistics, and matches are returned in canonical order — descending
// score, ties by ascending assignment key — so matches and MatchStats are
// byte-identical across store layouts whenever the search ran to completion
// (MatchStats.Truncated is empty — no budget ran out, no remote read
// failed, the maxHeldMatches cap refused nothing).
//
// A panic (matcher bug, armed faultpoint) unwinds through the caller, where
// the facade turns it into a *PipelineError.
func FindTopKMatches(g *store.Graph, q *QueryGraph, opts MatchOptions) ([]Match, MatchStats) {
	opts.defaults()
	view := opts.View
	if view == nil {
		view = g.FrozenView()
	}
	m := matcherPool.Get().(*matcher)
	m.view, m.bound, m.hints, m.q, m.opts, m.bounded = view, nil, false, q, opts, !opts.Exhaustive
	m.probes, m.seeds, m.steps, m.cuts, m.depth = 0, 0, 0, 0, 0
	m.res.reset(opts.TopK, maxHeldMatches)
	// A snapshot over remote parts binds to this request so its RPC calls
	// inherit the request budget's deadline and failures degrade (never
	// hang) the search; over local parts binding is the identity.
	if sn, ok := view.(*store.Snapshot); ok {
		m.bound = sn.BindRequest(opts.Budget, opts.Span)
		m.view = m.bound
		m.hints = m.bound.Prefetches()
	}
	m.walker.Reset(m.view)
	var stats MatchStats

	m.adj = grow(m.adj, len(q.Vertices))
	for vi := range m.adj {
		m.adj[vi] = m.adj[vi][:0]
	}
	for ei, e := range q.Edges {
		m.adj[e.From] = append(m.adj[e.From], ei)
		if e.To != e.From {
			m.adj[e.To] = append(m.adj[e.To], ei)
		}
	}
	m.reversePaths()

	// Neighborhood-based pruning (§4.2.2): drop entity candidates lacking
	// an adjacent predicate compatible with every incident edge.
	m.cands = grow(m.cands, len(q.Vertices))
	if m.hints {
		m.walks = make([][]dict.Path, len(q.Edges))
		for ei := range q.Edges {
			for ci, pc := range q.Edges[ei].Candidates {
				if len(pc.Path) > 1 {
					m.walks[ei] = append(m.walks[ei], pc.Path, m.rev[ei][ci])
				}
			}
		}
		if !opts.DisablePruning {
			m.hintNeighborhood()
		}
	}
	// An empty query has no subgraph to match.
	matchable := len(q.Vertices) > 0
	for vi := range q.Vertices {
		m.cands[vi] = m.cands[vi][:0]
		for _, c := range q.Vertices[vi].Candidates {
			if !opts.DisablePruning && !c.IsClass && !m.passesNeighborhood(vi, c.ID) {
				stats.CandidatesCut++
				continue
			}
			m.cands[vi] = append(m.cands[vi], c)
			stats.CandidatesKept++
		}
		// A constrained vertex whose candidate list is empty (after pruning)
		// can never be matched; Definition 3 admits no subgraph.
		if !q.Vertices[vi].Unconstrained && len(m.cands[vi]) == 0 {
			matchable = false
		}
	}
	if matchable {
		m.search(&stats)
	}
	// The one exit: a search that found nothing to search still says why —
	// the candidates may be gone only because a remote shard did not answer
	// the pruning pass.
	matches := m.res.harvest()
	m.finishStats(&stats, len(matches))
	m.release()
	return matches, stats
}

// release returns m to the pool, unless one of its buffers grew past
// poolMaxHeld. It first clears every reference into the finished search —
// the query's paths in the held rows and the search state, the view, the
// options — so that a pooled matcher keeps no QueryGraph or graph alive.
func (m *matcher) release() {
	if cap(m.res.rows) > poolMaxHeld || cap(m.tasks) > poolMaxHeld || m.walker.Largest() > poolMaxHeld {
		return
	}
	for _, targets := range m.frontier {
		if cap(targets) > poolMaxHeld {
			return
		}
	}
	clear(m.res.paths)
	clear(m.st.paths)
	m.view, m.bound, m.walks, m.q, m.opts = nil, nil, nil, nil, MatchOptions{}
	m.walker.Release()
	matcherPool.Put(m)
}

// reversePaths fills rev: every candidate path of every edge, read
// backwards into the matcher's own arrays.
func (m *matcher) reversePaths() {
	m.rev = grow(m.rev, len(m.q.Edges))
	for ei := range m.q.Edges {
		cands := m.q.Edges[ei].Candidates
		m.rev[ei] = grow(m.rev[ei], len(cands))
		for ci, pc := range cands {
			r := grow(m.rev[ei][ci], len(pc.Path))
			for i, st := range pc.Path {
				r[len(r)-1-i] = dict.Step{Pred: st.Pred, Forward: !st.Forward}
			}
			m.rev[ei][ci] = r
		}
	}
}

// search runs the rounds of Algorithm 3 over the pruned candidate lists.
func (m *matcher) search(stats *MatchStats) {
	m.scoreTerms()
	m.st.size(len(m.q.Vertices), len(m.q.Edges))

	anchors := m.anchorVertices()
	if len(anchors) == 0 {
		// Every vertex is unconstrained (an all-wh question): there is no
		// cursor to advance, so the search extends the empty assignment
		// once, and startComponent binds vertex 0 to every graph vertex.
		m.probes++
		m.extend(m.state())
		return
	}

	maxLen := 0
	for _, vi := range anchors {
		if l := len(m.cands[vi]); l > maxLen {
			maxLen = l
		}
	}
	for round := 0; round < maxLen && !m.opts.Budget.Done(); round++ {
		stats.Rounds++
		tasks := m.roundTasks(anchors, round)
		rsp := m.opts.Span.Child("round")
		recBefore, keptBefore := m.res.attempts, len(m.res.results)
		for i := range tasks {
			if m.aborted() {
				break
			}
			m.runSeed(&tasks[i])
		}
		if rsp.Enabled() {
			rsp.SetInt("round", int64(round))
			rsp.SetInt("seeds", int64(len(tasks)))
			rsp.SetInt("recorded", m.res.attempts-recBefore)
			rsp.SetInt("kept", int64(len(m.res.results)-keptBefore))
		}
		rsp.Finish()
		if m.aborted() {
			break
		}
		if !m.opts.Exhaustive && m.thresholdReached(anchors, round) {
			stats.EarlyStopped = true
			break
		}
	}
}

// vertexTerm is what a vertex bound with confidence score adds to a match's
// log-space score. A score that is not positive adds nothing.
func vertexTerm(score float64) float64 {
	if score > 0 {
		return math.Log(score)
	}
	return 0
}

// scoreTerms fills vlog, elog, vbest and ebest from the pruned candidate
// lists. The best term of a slot is the largest of its own terms, not the
// term of its first candidate, so the bound holds whatever the list order.
func (m *matcher) scoreTerms() {
	best := func(terms []float64) float64 {
		if len(terms) == 0 {
			return 0
		}
		b := terms[0]
		for _, t := range terms[1:] {
			b = max(b, t)
		}
		return b
	}
	nv, ne := len(m.q.Vertices), len(m.q.Edges)
	m.vlog, m.vbest = grow(m.vlog, nv), grow(m.vbest, nv)
	for vi := range m.q.Vertices {
		m.vlog[vi] = m.vlog[vi][:0]
		if m.q.Vertices[vi].Unconstrained {
			m.vbest[vi] = 0 // binds anything with δ = 1: term 0
			continue
		}
		m.vlog[vi] = grow(m.vlog[vi], len(m.cands[vi]))
		for i, c := range m.cands[vi] {
			m.vlog[vi][i] = vertexTerm(c.Score)
		}
		m.vbest[vi] = best(m.vlog[vi])
	}
	m.elog, m.ebest = grow(m.elog, ne), grow(m.ebest, ne)
	for ei := range m.q.Edges {
		m.elog[ei] = grow(m.elog[ei], len(m.q.Edges[ei].Candidates))
		for i, pc := range m.q.Edges[ei].Candidates {
			m.elog[ei][i] = math.Log(pc.Score)
		}
		m.ebest[ei] = best(m.elog[ei])
	}
}

// finishStats folds the matcher's counters into the caller's stats and
// annotates the search span (a no-op on the nil span). Runs once per
// search, on its one exit.
func (m *matcher) finishStats(stats *MatchStats, returned int) {
	m.walker.Flush()
	stats.AnchorsProbed = m.probes
	stats.Seeds = m.seeds
	stats.Steps = m.steps
	stats.MatchesFound = m.res.attempts
	stats.MatchesKept = len(m.res.results)
	stats.Truncated = m.opts.Budget.Exhausted()
	if stats.Truncated == "" {
		// An unbudgeted request has no tracker to trip, but a bound remote
		// snapshot still knows its reads failed — surface the degradation.
		stats.Truncated = m.bound.DegradeReason()
	}
	if stats.Truncated == "" && m.res.refused {
		stats.Truncated = budget.ReasonMatches
	}

	sp := m.opts.Span
	if !sp.Enabled() {
		return
	}
	sp.SetInt("rounds", int64(stats.Rounds))
	sp.SetInt("seeds", stats.Seeds)
	sp.SetInt("steps", stats.Steps)
	sp.SetInt("candidates_kept", int64(stats.CandidatesKept))
	sp.SetInt("candidates_cut", int64(stats.CandidatesCut))
	sp.SetInt("matches_found", stats.MatchesFound)
	sp.SetInt("matches_kept", int64(stats.MatchesKept))
	sp.SetInt("returned", int64(returned))
	if cut := m.res.theta; !math.IsInf(cut, -1) {
		sp.SetFloat("cut_score", cut)
	}
	sp.SetInt("bound_cuts", m.cuts)
	sp.SetBool("early_stopped", stats.EarlyStopped)
	if stats.Truncated != "" {
		sp.SetStr("truncated", stats.Truncated)
	}
	// A bound remote snapshot flushes its per-request RPC counters here
	// (frames: rpc_calls / rpc_retries / rpc_errors; reads: rpc_reads /
	// rpc_read_hits / rpc_batch_reads); the flight recorder lifts them
	// into the wide event.
	m.bound.AnnotateSpan(sp)
}

// seedTask is one unit of a round's work: enumerate every match in which
// query vertex vi is bound to entity u, justified by the class via (or
// directly when via is store.None), which adds term to the score.
type seedTask struct {
	vi   int
	u    store.ID
	via  store.ID
	term float64
}

// roundTasks expands the TA cursors at position round into per-seed work
// items — the searchFromAnchor calls of Algorithm 3, with class candidates
// unrolled to their instances. Like Algorithm 3 it orders nothing inside
// the round: seeds run as they were expanded, anchors in vertex order and a
// class's instances in the order of its rdf:type in-span, which is the same
// at every store layout.
func (m *matcher) roundTasks(anchors []int, round int) []seedTask {
	tasks := m.tasks[:0]
	for _, vi := range anchors {
		if round >= len(m.cands[vi]) {
			continue
		}
		c, term := m.cands[vi][round], m.vlog[vi][round]
		m.probes++
		if c.IsClass {
			for _, e := range m.instancesOf(c.ID) {
				tasks = append(tasks, seedTask{vi: vi, u: e.To, via: c.ID, term: term})
			}
		} else {
			tasks = append(tasks, seedTask{vi: vi, u: c.ID, via: store.None, term: term})
		}
	}
	if m.hints {
		m.hintSeeds(tasks)
	}
	m.tasks = tasks
	return tasks
}

// instancesOf returns the class's in-span over rdf:type, whose To ends are
// the instance entities of class c (the subjects of ⟨s, rdf:type, c⟩
// triples) — the same (Pred,To)-sorted run at every shard count, so the
// seed order is too.
func (m *matcher) instancesOf(c store.ID) []store.Edge {
	tid := m.view.TypeID()
	if tid == store.None {
		return nil
	}
	return m.view.InPred(c, tid)
}

// instanceCount is len(instancesOf(c)) without materializing the slice —
// a binary-searched degree.
func (m *matcher) instanceCount(c store.ID) int {
	tid := m.view.TypeID()
	if tid == store.None {
		return 0
	}
	return m.view.InPredDegree(c, tid)
}

// hasType answers "is w an instance of class c": a binary-searched
// membership probe in w's out span, wherever c lives.
func (m *matcher) hasType(w, c store.ID) bool {
	tid := m.view.TypeID()
	return tid != store.None && m.view.Has(w, tid, c)
}

// runSeed explores every match rooted at one seed assignment.
func (m *matcher) runSeed(t *seedTask) {
	faultpoint.Hit(faultpoint.MatcherWorker)
	m.seeds++
	st := m.state()
	st.vterm[t.vi] = t.term
	m.startAt(st, t.vi, t.u, t.via)
}

// state returns the search's one searchState as the empty assignment.
func (m *matcher) state() *searchState {
	m.st.reset(m)
	return &m.st
}

// aborted reports whether the search should stop running seeds: the budget
// tripped, or the maxHeldMatches cap refused a match.
func (m *matcher) aborted() bool {
	return m.opts.Budget.Done() || m.res.refused
}

// anchorVertices returns the constrained vertices usable as TA cursors.
// When several are available, vertices whose candidates expand to very
// large seed sets (a class with tens of thousands of instances) are
// dropped as anchors: every match still contains a candidate of each
// remaining anchor, so enumeration stays complete, and thresholdReached
// keeps the skipped vertices' best scores in the upper bound, so the
// stopping rule stays sound.
func (m *matcher) anchorVertices() []int {
	m.anchors, m.anchorCost = m.anchors[:0], m.anchorCost[:0]
	for vi := range m.q.Vertices {
		if m.q.Vertices[vi].Unconstrained || len(m.cands[vi]) == 0 {
			continue
		}
		cost := 0
		for _, c := range m.cands[vi] {
			if c.IsClass {
				cost += m.instanceCount(c.ID)
			} else {
				cost++
			}
		}
		m.anchors, m.anchorCost = append(m.anchors, vi), append(m.anchorCost, cost)
	}
	if len(m.anchors) <= 1 {
		return m.anchors
	}
	minCost := slices.Min(m.anchorCost)
	out := m.anchors[:0]
	for i, vi := range m.anchors {
		if m.anchorCost[i] <= 64*(minCost+1) {
			out = append(out, vi)
		}
	}
	return out
}

// passesNeighborhood implements the u₅ test of §4.2.2: an entity candidate
// survives only if, for every incident query edge, some candidate path's
// first or last predicate is adjacent to it.
func (m *matcher) passesNeighborhood(vi int, u store.ID) bool {
	for _, ei := range m.adj[vi] {
		e := &m.q.Edges[ei]
		ok := false
		for _, c := range e.Candidates {
			if len(c.Path) == 0 {
				continue
			}
			first, last := c.Path[0].Pred, c.Path[len(c.Path)-1].Pred
			if m.hasAdjPred(u, first) || m.hasAdjPred(u, last) {
				ok = true
				break
			}
		}
		if !ok && len(e.Candidates) > 0 {
			return false
		}
	}
	return true
}

// hasAdjPred answers the §4.2.2 adjacency test through the captured view
// (a search of u's two sorted spans in the owning part).
func (m *matcher) hasAdjPred(u, p store.ID) bool {
	return m.view.HasAdjacentPred(u, p)
}

// thresholdReached evaluates the TA stopping rule after a complete round.
// First exhaustion: every match binds each anchor to one of its candidates,
// so once any anchor's list is used up every match has been enumerated and
// none is left to find, whether or not k are held. Then the cut: stop when
// the score of the k-th best match found is above the upper bound on any
// undiscovered match. The bound is a search state's own sum with every slot
// at its best, and every anchor at its next candidate (the lists are
// sorted, so nothing further down is better): a match not yet discovered
// binds each anchor past this round. Anchor-cost skipping leaves the
// skipped vertices at their best term — sound, since nothing bounds the
// position of their candidate in an undiscovered match. The test is
// strict: an undiscovered match that ties the cut belongs to the result.
func (m *matcher) thresholdReached(anchors []int, round int) bool {
	for _, vi := range anchors {
		if round+1 >= len(m.cands[vi]) {
			return true
		}
	}
	theta := m.res.theta
	if math.IsInf(theta, -1) {
		return false
	}
	st := m.state()
	for _, vi := range anchors {
		st.vterm[vi] = m.vlog[vi][round+1]
	}
	return theta > st.total()
}

// resultSet is the top-k state of one search: the matches whose score is at
// least the cut θ, the score of the k-th best of them (−∞ until k are held).
// θ only rises, and a match that falls below it is let go, so what is held
// at the end is the returned set: the k best matches, ties at the cut
// included.
//
// A held match is a row: its Assignment then its Via in ids and its edge
// paths in paths, each at the fixed stride of the search's query, and its
// score, orientation bits, hash and chain link in a pointer-free heldRow.
// Rows are deduplicated by assignment hash through int32 bucket heads
// chained through the rows. A row let go goes on a free list the next new
// match takes, so a search needs as many rows as it ever holds at once, and
// a pooled matcher keeps them for the next search (poolMaxHeld).
type resultSet struct {
	topK       int
	maxMatches int
	attempts   int64   // record calls (complete matches offered)
	theta      float64 // the cut θ: −∞ until topK matches are held
	refused    bool    // the maxHeldMatches cap turned a match away

	// The strides, taken from the first match a search holds: every match
	// of one query has one shape.
	na, idStride, ne int

	rows    []heldRow
	ids     []store.ID  // row r's Assignment, then its Via, at r*idStride
	paths   []dict.Path // row r's EdgePaths at r*ne
	heads   []int32     // bucket → first row of its chain, or -1; a power of two long
	results []int32     // the held rows, by descending score
	free    int32       // the first row let go, chained through next; -1 when none

	hashMask uint64 // all ones; a test narrows it to force collisions
	keys     []harvestKey
}

// heldRow is one held match's scalars and its link: the next row of its
// bucket's chain while held, of the free list once let go, -1 at the end.
type heldRow struct {
	score float64
	rev   uint64
	hash  uint64
	next  int32
}

// minBuckets is the bucket count a search starts with; the heads double
// whenever the set holds more rows than there are buckets.
const minBuckets = 16

// reset empties the set for a new search, keeping its arrays.
func (rs *resultSet) reset(topK, maxMatches int) {
	rs.topK, rs.maxMatches = topK, maxMatches
	rs.attempts, rs.theta, rs.refused = 0, math.Inf(-1), false
	rs.rows, rs.ids, rs.paths, rs.results = rs.rows[:0], rs.ids[:0], rs.paths[:0], rs.results[:0]
	rs.heads = grow(rs.heads[:0], minBuckets)
	for i := range rs.heads {
		rs.heads[i] = -1
	}
	rs.free, rs.hashMask = -1, ^uint64(0)
}

// hashAssignment is an assignment's bucket key (collisions are chained).
func hashAssignment(assignment []store.ID) uint64 {
	h := uint64(len(assignment))
	for _, u := range assignment {
		h = (h ^ uint64(u)) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

func (rs *resultSet) bucket(hash uint64) *int32 { return &rs.heads[hash&uint64(len(rs.heads)-1)] }

func (rs *resultSet) assignment(r int32) []store.ID {
	o := int(r) * rs.idStride
	return rs.ids[o : o+rs.na]
}

func (rs *resultSet) via(r int32) []store.ID {
	o := int(r) * rs.idStride
	return rs.ids[o+rs.na : o+rs.idStride]
}

func (rs *resultSet) edgePaths(r int32) []dict.Path {
	o := int(r) * rs.ne
	return rs.paths[o : o+rs.ne]
}

// record registers a discovered match, deduplicating by assignment and
// keeping the best-scoring justification per assignment. A match below θ
// is dropped at the door. A new assignment that arrives while maxHeldMatches
// are held is refused, which ends the search (MatchStats.Truncated =
// "matches"). match points at the search's live backtracking state, which
// mutates after record returns, so what is held is copied.
func (rs *resultSet) record(match *Match) {
	rs.attempts++
	if match.Score < rs.theta {
		return
	}
	hash := hashAssignment(match.Assignment) & rs.hashMask
	head := rs.bucket(hash)
	r := *head
	for r >= 0 && (rs.rows[r].hash != hash || !slices.Equal(rs.assignment(r), match.Assignment)) {
		r = rs.rows[r].next
	}
	if r >= 0 {
		if prev := &rs.rows[r]; match.Score > prev.score {
			// Same assignment, better justification: move the one entry up
			// to behind the matches already at its new score.
			i := sort.Search(len(rs.results), func(i int) bool { return rs.rows[rs.results[i]].score <= prev.score })
			for rs.results[i] != r {
				i++
			}
			prev.score, prev.rev = match.Score, match.EdgeRev
			copy(rs.via(r), match.Via)
			copy(rs.edgePaths(r), match.EdgePaths)
			pos := sort.Search(i, func(j int) bool { return rs.rows[rs.results[j]].score < prev.score })
			copy(rs.results[pos+1:i+1], rs.results[pos:i])
			rs.results[pos] = r
			rs.raiseCut()
		}
		return
	}
	if len(rs.results) >= rs.maxMatches {
		rs.refused = true
		return
	}
	if r = rs.free; r >= 0 {
		rs.free = rs.rows[r].next
		copy(rs.assignment(r), match.Assignment)
		copy(rs.via(r), match.Via)
		copy(rs.edgePaths(r), match.EdgePaths)
	} else {
		if len(rs.rows) == 0 {
			rs.na, rs.idStride, rs.ne = len(match.Assignment), len(match.Assignment)+len(match.Via), len(match.EdgePaths)
		}
		r = int32(len(rs.rows))
		rs.rows = append(rs.rows, heldRow{})
		rs.ids = append(append(rs.ids, match.Assignment...), match.Via...)
		rs.paths = append(rs.paths, match.EdgePaths...)
	}
	rs.rows[r] = heldRow{score: match.Score, rev: match.EdgeRev, hash: hash, next: *head}
	*head = r
	pos := sort.Search(len(rs.results), func(i int) bool { return rs.rows[rs.results[i]].score < match.Score })
	rs.results = append(rs.results, 0)
	copy(rs.results[pos+1:], rs.results[pos:])
	rs.results[pos] = r
	if len(rs.results) > len(rs.heads) {
		rs.rehash()
	}
	rs.raiseCut()
}

// rehash doubles the buckets and chains every held row anew.
func (rs *resultSet) rehash() {
	rs.heads = grow(rs.heads, 2*len(rs.heads))
	for i := range rs.heads {
		rs.heads[i] = -1
	}
	for _, r := range rs.results {
		head := rs.bucket(rs.rows[r].hash)
		rs.rows[r].next, *head = *head, r
	}
}

// raiseCut lifts θ to the score of the k-th best held match, if that is
// above it, and lets go of the matches now below: each is unlinked from its
// chain and its row goes on the free list. Called after results changed.
func (rs *resultSet) raiseCut() {
	if len(rs.results) < rs.topK {
		return
	}
	kth := rs.rows[rs.results[rs.topK-1]].score
	if kth <= rs.theta {
		return
	}
	rs.theta = kth
	n := len(rs.results)
	for ; rs.rows[rs.results[n-1]].score < kth; n-- {
		r := rs.results[n-1]
		link := rs.bucket(rs.rows[r].hash)
		for *link != r {
			link = &rs.rows[*link].next
		}
		*link = rs.rows[r].next
		rs.rows[r].next, rs.free = rs.free, r
	}
	rs.results = rs.results[:n]
}

// harvestKey is what harvest sorts a held row by: its score, then the key36
// of its first ID; rows equal on both compare their whole key36 sequences.
type harvestKey struct {
	score float64
	first uint64
	row   int32
}

// harvest returns the held matches — the top k, ties at the cut included —
// in canonical order: descending score, ties by ascending assignment key,
// so the order matches tied in score were found in does not show. The key
// is the assignment's IDs in base 36, each followed by '.' ("1.z.10.");
// it is compared as key36 numbers, one per ID. The matches are copied out
// of the rows into three arrays of exactly their size — the matches, their
// IDs and their paths — every slice capped at its length, so they outlive
// the set and the set can serve the next search.
func (rs *resultSet) harvest() []Match {
	n := len(rs.results)
	if n == 0 {
		return nil
	}
	keys := grow(rs.keys, n)
	for i, r := range rs.results {
		keys[i] = harvestKey{score: rs.rows[r].score, first: key36(rs.ids[int(r)*rs.idStride]), row: r}
	}
	slices.SortFunc(keys, func(a, b harvestKey) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		x, y := rs.assignment(a.row), rs.assignment(b.row)
		for i := 1; i < len(x); i++ {
			if c := cmp.Compare(key36(x[i]), key36(y[i])); c != 0 {
				return c
			}
		}
		return 0
	})
	rs.keys = keys
	out := make([]Match, n)
	ids := make([]store.ID, n*rs.idStride)
	var paths []dict.Path
	if rs.ne > 0 {
		paths = make([]dict.Path, n*rs.ne)
	}
	for i, k := range keys {
		row := &rs.rows[k.row]
		a := ids[i*rs.idStride : (i+1)*rs.idStride : (i+1)*rs.idStride]
		copy(a, rs.ids[int(k.row)*rs.idStride:])
		p := paths[i*rs.ne : (i+1)*rs.ne : (i+1)*rs.ne]
		copy(p, rs.edgePaths(k.row))
		out[i] = Match{Assignment: a[:rs.na:rs.na], Via: a[rs.na:], EdgePaths: p, EdgeRev: row.rev, Score: row.score}
	}
	return out
}

// key36 maps an ID to a number that orders as the ID's key segment — its
// base-36 digits, then '.' — orders as a string. Digits are ASCII-ordered
// by value and '.' sorts below every digit, so two segments compare as
// their digits left-aligned (a uint32 has at most seven), and when those
// are equal the shorter, a prefix of the other, sorts first: the digits
// padded to seven places, then the digit count.
func key36(u store.ID) uint64 {
	v, digits := uint64(u), uint64(1)
	for p := uint64(36); p <= uint64(u); p *= 36 {
		digits++
	}
	for n := digits; n < 7; n++ {
		v *= 36
	}
	return v<<3 | digits
}

// searchState is the search's partial assignment. vterm and eterm hold the
// Definition 6 term of every vertex and edge slot: the bound candidate's,
// or the slot's best (matcher.vbest, ebest) while it is unbound.
type searchState struct {
	assign []store.ID
	via    []store.ID
	vterm  []float64
	paths  []dict.Path
	rev    uint64 // per edge with a path: the orientation it was matched in (Match.EdgeRev)
	eterm  []float64
	done   []bool
}

// size shapes the state for a query of nVerts vertices and nEdges edges,
// reusing its arrays; reset then empties it.
func (st *searchState) size(nVerts, nEdges int) {
	st.assign, st.via, st.vterm = grow(st.assign, nVerts), grow(st.via, nVerts), grow(st.vterm, nVerts)
	st.done = grow(st.done, nVerts)
	st.paths, st.eterm = grow(st.paths, nEdges), grow(st.eterm, nEdges)
	st.rev = 0
}

// setRev records the orientation edge ei's path was matched in.
func (st *searchState) setRev(ei int, rev bool) {
	st.rev &^= 1 << ei
	if rev {
		st.rev |= 1 << ei
	}
}

// reset puts a new or used state into the empty assignment of m's query:
// nothing bound, every slot at its best term.
func (st *searchState) reset(m *matcher) {
	for i := range st.assign {
		st.assign[i], st.via[i], st.done[i] = store.None, store.None, false
	}
	clear(st.paths)
	copy(st.vterm, m.vbest)
	copy(st.eterm, m.ebest)
}

// total sums the state's terms, vertices then edges, in slot order. For a
// complete assignment that is its Definition 6 score; for a partial one it
// is an upper bound on the score of every completion, and not only in
// exact arithmetic: a completion replaces terms by smaller or equal ones in
// the same sum, and floating-point addition is monotone in each operand, so
// the computed bound is never below the computed score.
func (st *searchState) total() float64 {
	sum := 0.0
	for _, t := range st.vterm {
		sum += t
	}
	for _, t := range st.eterm {
		sum += t
	}
	return sum
}

// below reports whether no completion of st can enter the result set: its
// bound is under the cut. Strictly under — a completion that ties the cut
// is part of the result. While fewer than k matches are held there is no
// cut and nothing to sum.
func (m *matcher) below(st *searchState) bool {
	if !m.bounded {
		return false
	}
	theta := m.res.theta
	return !math.IsInf(theta, -1) && st.total() < theta
}

// extend grows the partial assignment by one vertex (VF2-style: always a
// vertex adjacent to the matched region when one exists) until complete.
// Before it walks a candidate path, and again before it descends under a
// target, it asks whether the assignment so far can still reach the cut.
func (m *matcher) extend(st *searchState) {
	if m.res.refused {
		return
	}
	m.steps++
	faultpoint.Hit(faultpoint.MatcherExtend)
	if !m.opts.Budget.Step() {
		return
	}
	next, bridge := m.chooseNext(st)
	if next < 0 {
		m.finish(st)
		return
	}
	if bridge < 0 {
		// No edge reaches next from the bound vertices: start it afresh.
		m.startComponent(st, next)
		st.vterm[next] = m.vbest[next]
		return
	}

	e := &m.q.Edges[bridge]
	from := st.assign[e.From]
	reversedEdge := false
	if !st.done[e.From] {
		from = st.assign[e.To]
		reversedEdge = true
	}
	// The walks of this level append to their own buffer, which the levels
	// below leave alone.
	depth := m.depth
	m.depth++
	if depth == len(m.frontier) {
		m.frontier = append(m.frontier, nil)
	}
	for ci, pc := range e.Candidates {
		st.paths[bridge], st.eterm[bridge] = pc.Path, m.elog[bridge][ci]
		if m.below(st) {
			m.cuts++
			continue
		}
		targets, nFwd := m.reachable(depth, from, bridge, ci, reversedEdge)
		if m.hints {
			m.hintFrontier(st, next, bridge, targets)
		}
		for ti, w := range targets {
			st.setRev(bridge, ti >= nFwd)
			if m.used(st, w) {
				continue
			}
			vc, ok := m.vertexAccepts(next, w)
			if !ok {
				continue
			}
			st.assign[next], st.via[next], st.vterm[next], st.done[next] = w, vc.via, vc.term, true
			if m.below(st) {
				m.cuts++
			} else {
				m.extend(st)
			}
			st.assign[next], st.via[next], st.vterm[next], st.done[next] = store.None, store.None, m.vbest[next], false
		}
	}
	m.depth--
	st.paths[bridge], st.eterm[bridge] = nil, m.ebest[bridge]
}

// startComponent binds next, the first vertex of a component no edge joins
// to the matched region (of the whole query, for an all-wh question). A
// constrained vertex is bound from its own candidate list. An unconstrained
// one carries no candidate-list signal, so every graph IRI with an edge is a
// candidate, in ID order; with one score per candidate path every match of
// the best path ties, and past maxHeldMatches of them the search stops,
// truncated ("matches"). The caller restores the vertex's term.
func (m *matcher) startComponent(st *searchState, next int) {
	if m.q.Vertices[next].Unconstrained {
		for v, n := 0, m.view.NumTerms(); v < n; v++ {
			u := store.ID(v)
			if m.view.Term(u).IsIRI() && m.view.Degree(u) > 0 && !m.startAt(st, next, u, store.None) {
				return
			}
		}
		return
	}
	for ci, c := range m.cands[next] {
		st.vterm[next] = m.vlog[next][ci]
		if m.below(st) {
			m.cuts++
			continue
		}
		if !c.IsClass {
			if !m.startAt(st, next, c.ID, store.None) {
				return
			}
			continue
		}
		for _, e := range m.instancesOf(c.ID) {
			if !m.startAt(st, next, e.To, c.ID) {
				return
			}
		}
	}
}

// startAt binds next to u, justified by the class via (or directly when via
// is store.None), and extends from there. It is the one way the search
// binds a vertex no bridge edge reaches: a round's seed, the first vertex of
// a disconnected component, the first vertex of an all-wh question. It
// returns false when the search can start nothing more — the budget refused
// the candidate, or the maxHeldMatches cap refused a match.
func (m *matcher) startAt(st *searchState, next int, u, via store.ID) bool {
	if m.res.refused || !m.opts.Budget.Candidate() {
		return false
	}
	if !m.used(st, u) {
		st.assign[next], st.via[next], st.done[next] = u, via, true
		m.extend(st)
		st.assign[next], st.via[next], st.done[next] = store.None, store.None, false
	}
	return true
}

// predDegree returns the exact out- or in-degree of u over predicate p —
// a binary search on the frozen view.
func (m *matcher) predDegree(u, p store.ID, forward bool) int {
	if forward {
		return m.view.OutPredDegree(u, p)
	}
	return m.view.InPredDegree(u, p)
}

// frontierCost is the exact size of the extension frontier reachable()
// will enumerate when edge ei is bound from graph vertex u: for every
// candidate path, both orientations are walked, so the first step of each
// walk — the path's first predicate leaving u, and its last predicate
// entering u — contributes its per-predicate degree. The cost depends only
// on u and the query edge (not on which endpoint u sits at: both
// orientations are always tried), so it is identical at every shard count.
func (m *matcher) frontierCost(u store.ID, ei int) int {
	cost := 0
	for _, pc := range m.q.Edges[ei].Candidates {
		if len(pc.Path) == 0 {
			continue
		}
		first := pc.Path[0]
		last := pc.Path[len(pc.Path)-1]
		cost += m.predDegree(u, first.Pred, first.Forward)
		cost += m.predDegree(u, last.Pred, !last.Forward)
	}
	return cost
}

// frontierReads appends the reads frontierCost(u, ei) makes — which are
// also the first hop of each walk reachable starts from u over edge ei.
func (m *matcher) frontierReads(reads []store.Read, u store.ID, ei int) []store.Read {
	for _, pc := range m.q.Edges[ei].Candidates {
		if len(pc.Path) == 0 {
			continue
		}
		first := pc.Path[0]
		last := pc.Path[len(pc.Path)-1]
		reads = append(reads,
			store.ReadPred(u, first.Pred, first.Forward),
			store.ReadPred(u, last.Pred, !last.Forward))
	}
	return reads
}

// hintNeighborhood tells a remote view the adjacency probes the pruning
// pass is about to make: passesNeighborhood's, for every entity candidate —
// each probe reads the candidate's p-runs in both directions, which are
// also the first hop a seed on that candidate walks.
func (m *matcher) hintNeighborhood() {
	var reads []store.Read
	for vi := range m.q.Vertices {
		for _, c := range m.q.Vertices[vi].Candidates {
			if c.IsClass {
				continue
			}
			for _, ei := range m.adj[vi] {
				for _, pc := range m.q.Edges[ei].Candidates {
					if len(pc.Path) > 0 {
						first, last := pc.Path[0].Pred, pc.Path[len(pc.Path)-1].Pred
						reads = append(reads, store.ReadPred(c.ID, first, true), store.ReadPred(c.ID, first, false),
							store.ReadPred(c.ID, last, true), store.ReadPred(c.ID, last, false))
					}
				}
			}
		}
	}
	m.bound.Prefetch(reads)
}

// hintSeeds tells a remote view the reads a round's seeds make first — the
// frontier costs chooseNext reads at each seed, which are also the first hop
// of every walk its first extension makes — and, for a class
// unrolled to many seeds, the hops behind them: a frame per shard per hop
// per round, however many instances the class has. A seed alone in its
// group is left to the walker, which reads each walk ahead as it makes it.
func (m *matcher) hintSeeds(tasks []seedTask) {
	var reads []store.Read
	for i := range tasks {
		for _, ei := range m.adj[tasks[i].vi] {
			reads = m.frontierReads(reads, tasks[i].u, ei)
		}
	}
	m.bound.Prefetch(reads)
	st := m.state()
	for lo := 0; lo < len(tasks); {
		// The seeds of one vertex in one round come from one candidate, so
		// they share a term and with it which walks the cut leaves them.
		vi, hi := tasks[lo].vi, lo
		var seeds []store.ID
		for ; hi < len(tasks) && tasks[hi].vi == vi; hi++ {
			seeds = append(seeds, tasks[hi].u)
		}
		if len(seeds) > 1 {
			st.vterm[vi] = tasks[lo].term
			var walks []dict.Path
			for _, ei := range m.adj[vi] {
				walks = m.liveWalks(walks, st, ei)
			}
			st.vterm[vi] = m.vbest[vi]
			dict.PrefetchPaths(m.bound, seeds, walks)
		}
		lo = hi
	}
}

// liveWalks appends the multi-step walks over edge ei (m.walks[ei], two per
// multi-step candidate path) that extend would still make from st: those
// of the candidate paths whose bound, with the edge realized by that path,
// is not below the cut.
func (m *matcher) liveWalks(walks []dict.Path, st *searchState, ei int) []dict.Path {
	w := m.walks[ei]
	for ci, pc := range m.q.Edges[ei].Candidates {
		if len(pc.Path) <= 1 {
			continue
		}
		st.eterm[ei] = m.elog[ei][ci]
		if !m.below(st) {
			walks = append(walks, w[0], w[1])
		}
		w = w[2:]
	}
	st.eterm[ei] = m.ebest[ei]
	return walks
}

// hintFrontier tells a remote view what extend is about to read for every
// target of a frontier bound to query vertex next: the type probes
// vertexAccepts makes and — for the edges at next that will still have an
// open end once next is bound — the spans frontierCost and then reachable
// read one level down, a walk's first hop. The further hops of a
// multi-step walk are the walker's to read ahead (dict.Walker.Follow), hop
// by hop as it makes the walk, under the cut of that moment.
func (m *matcher) hintFrontier(st *searchState, next, bridge int, targets []store.ID) {
	if len(targets) == 0 {
		return
	}
	// vertexAccepts tests each class candidate with one search of w's out span.
	typed := !m.q.Vertices[next].Unconstrained && m.view.TypeID() != store.None &&
		slices.ContainsFunc(m.cands[next], func(c VertexCandidate) bool { return c.IsClass })
	var open []int // edges at next whose other end stays unbound
	for _, ei := range m.adj[next] {
		e := &m.q.Edges[ei]
		other := e.From
		if other == next {
			other = e.To
		}
		if ei != bridge && !st.done[other] {
			open = append(open, ei)
		}
	}
	var reads []store.Read
	for _, w := range targets {
		if m.used(st, w) {
			continue
		}
		if typed {
			reads = append(reads, store.ReadOut(w))
		}
		for _, ei := range open {
			reads = m.frontierReads(reads, w, ei)
		}
	}
	m.bound.Prefetch(reads)
}

// chooseNext picks the next unmatched vertex. Among query edges bridging
// the matched region (exactly one bound endpoint) it takes the one whose
// extension frontier is smallest — the selectivity ordering the snapshot's
// cheap degree statistics pay for — instead of declaration order, so the
// search fails on rare predicates before fanning out over common ones.
// Ties keep declaration order, and the cost is a pure function of the
// partial assignment, so the search tree stays deterministic; the
// canonical harvest keeps the final output byte-identical regardless.
// With no bridge edge it falls back to an unmatched vertex of another
// component: the first constrained one, whose candidate list starts it,
// else the first unconstrained one, which starts from the whole graph.
func (m *matcher) chooseNext(st *searchState) (vertex, bridge int) {
	bestV, bestE, bestCost := -1, -1, 0
	for ei := range m.q.Edges {
		e := &m.q.Edges[ei]
		var u store.ID
		var next int
		switch {
		case st.done[e.From] && !st.done[e.To]:
			u, next = st.assign[e.From], e.To
		case st.done[e.To] && !st.done[e.From]:
			u, next = st.assign[e.To], e.From
		default:
			continue
		}
		cost := m.frontierCost(u, ei)
		if bestE < 0 || cost < bestCost {
			bestV, bestE, bestCost = next, ei, cost
		}
	}
	if bestE >= 0 {
		return bestV, bestE
	}
	for vi := range m.q.Vertices {
		switch {
		case st.done[vi]:
		case !m.q.Vertices[vi].Unconstrained:
			return vi, -1
		case bestV < 0:
			bestV = vi
		}
	}
	return bestV, -1
}

// reachable returns the vertices connected to u by candidate path ci of
// edge ei in either orientation (Definition 3 condition 3). reversed means
// u sits at the edge's To side, so the recorded path is read backwards
// first. The first nFwd targets are those the path reaches running
// From → To; the rest it reaches only running To → From. Both walks append
// to the buffer of extend depth depth, the second deduped against the
// first, so the targets are valid until the next walk at that depth.
func (m *matcher) reachable(depth int, u store.ID, ei, ci int, reversed bool) (targets []store.ID, nFwd int) {
	if !m.opts.Budget.Step() {
		return nil, 0
	}
	a, b := m.q.Edges[ei].Candidates[ci].Path, m.rev[ei][ci]
	if reversed {
		a, b = b, a
	}
	out := m.walker.Follow(m.frontier[depth][:0], u, a)
	nFwd = len(out)
	out = m.walker.Follow(out, u, b)
	m.frontier[depth] = out
	return out, nFwd
}

type acceptance struct {
	via   store.ID
	score float64
	term  float64 // what score adds to a match's score (vertexTerm)
}

// vertexAccepts checks Definition 3 conditions 1–2 for matching graph
// vertex w to query vertex vi, returning the best-scoring justification.
func (m *matcher) vertexAccepts(vi int, w store.ID) (acceptance, bool) {
	v := &m.q.Vertices[vi]
	if v.Unconstrained {
		// Wh-arguments match every entity and class (§2.2); δ = 1.
		return acceptance{via: store.None, score: 1.0}, true
	}
	best := acceptance{via: store.None, score: -1}
	for ci, c := range m.cands[vi] {
		switch {
		case !c.IsClass && c.ID == w:
			if c.Score > best.score {
				best = acceptance{via: store.None, score: c.Score, term: m.vlog[vi][ci]}
			}
		case c.IsClass && m.hasType(w, c.ID):
			if c.Score > best.score {
				best = acceptance{via: c.ID, score: c.Score, term: m.vlog[vi][ci]}
			}
		}
	}
	if best.score < 0 {
		return acceptance{}, false
	}
	return best, true
}

func (m *matcher) used(st *searchState, u store.ID) bool {
	for vi, d := range st.done {
		if d && st.assign[vi] == u {
			return true
		}
	}
	return false
}

// finish validates remaining edge constraints (edges whose endpoints were
// both matched before the edge could serve as a bridge) and records the
// match with its Definition 6 score. Paths it chooses itself are reset
// before returning so backtracking state stays consistent.
func (m *matcher) finish(st *searchState) {
	m.filled = m.filled[:0]
	complete := true
	for ei := range m.q.Edges {
		if st.paths[ei] != nil {
			continue
		}
		// Choose the best candidate path connecting the endpoints.
		e := &m.q.Edges[ei]
		found := false
		for ci, pc := range e.Candidates {
			if fwd, ok := m.walker.Connects(st.assign[e.From], st.assign[e.To], pc.Path); ok {
				st.paths[ei], st.eterm[ei] = pc.Path, m.elog[ei][ci]
				st.setRev(ei, !fwd)
				m.filled = append(m.filled, ei)
				found = true
				break
			}
		}
		if !found {
			complete = false
			break
		}
	}
	if complete {
		m.res.record(&Match{
			Assignment: st.assign,
			Via:        st.via,
			EdgePaths:  st.paths,
			EdgeRev:    st.rev,
			Score:      st.total(),
		})
	}
	for _, ei := range m.filled {
		st.paths[ei], st.eterm[ei] = nil, m.ebest[ei]
	}
}
