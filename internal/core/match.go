package core

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"strings"

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

func (m *Match) key() string {
	var b strings.Builder
	for _, u := range m.Assignment {
		b.WriteString(strconv.FormatUint(uint64(u), 36))
		b.WriteByte('.')
	}
	return b.String()
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
	// MaxMatches caps the matches held at once (default 10000). Only
	// matches at or above the cut are held, so the cap is met only by more
	// than MaxMatches matches tied at the cut; the search then ends with
	// MatchStats.Truncated = "matches".
	MaxMatches int
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

func (o *MatchOptions) defaults() {
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.MaxMatches == 0 {
		o.MaxMatches = 10000
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
	// multi-step candidate path in both orientations. Built with hints.
	walks [][]dict.Path
	q     *QueryGraph
	opts  MatchOptions

	cands [][]VertexCandidate // pruned candidate lists per vertex
	adj   [][]int             // vertex → incident edge indices

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

	// st is the search's one partial assignment, allocated once the score
	// terms are known and reset (state) by each of its users in turn: every
	// seed, and between seeds hintSeeds and thresholdReached.
	st  *searchState
	res *resultSet // the top-k held so far

	probes int   // anchored searches performed (stats)
	seeds  int64 // runSeed calls (class candidates unrolled)
	steps  int64 // extend() invocations
	cuts   int64 // branches skipped because their bound was below the cut
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
	// remote read ("shard-unavailable"), or "matches" when the MaxMatches
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
// after another on the caller's goroutine, cheapest first. The search tree
// and the order it is walked in depend only on the query and on pure graph
// statistics, and matches are returned in canonical order — descending
// score, ties by ascending assignment key — so matches and MatchStats are
// byte-identical across store layouts whenever the search ran to completion
// (MatchStats.Truncated is empty — no budget ran out, no remote read
// failed, the MaxMatches cap refused nothing).
//
// A panic (matcher bug, armed faultpoint) unwinds through the caller, where
// the facade turns it into a *PipelineError.
func FindTopKMatches(g *store.Graph, q *QueryGraph, opts MatchOptions) ([]Match, MatchStats) {
	opts.defaults()
	view := opts.View
	if view == nil {
		view = g.FrozenView()
	}
	m := &matcher{view: view, q: q, opts: opts, bounded: !opts.Exhaustive,
		res: newResultSet(opts.TopK, opts.MaxMatches)}
	// A snapshot over remote parts binds to this request so its RPC calls
	// inherit the request budget's deadline and failures degrade (never
	// hang) the search; over local parts binding is the identity.
	if sn, ok := view.(*store.Snapshot); ok {
		m.bound = sn.BindRequest(opts.Budget, opts.Span)
		m.view = m.bound
		m.hints = m.bound.Prefetches()
	}
	var stats MatchStats

	m.adj = make([][]int, len(q.Vertices))
	for ei, e := range q.Edges {
		m.adj[e.From] = append(m.adj[e.From], ei)
		if e.To != e.From {
			m.adj[e.To] = append(m.adj[e.To], ei)
		}
	}

	// Neighborhood-based pruning (§4.2.2): drop entity candidates lacking
	// an adjacent predicate compatible with every incident edge.
	m.cands = make([][]VertexCandidate, len(q.Vertices))
	if m.hints {
		m.walks = make([][]dict.Path, len(q.Edges))
		for ei := range q.Edges {
			for _, pc := range q.Edges[ei].Candidates {
				if len(pc.Path) > 1 {
					m.walks[ei] = append(m.walks[ei], pc.Path, pc.Path.Reverse())
				}
			}
		}
		if !opts.DisablePruning {
			m.hintNeighborhood()
		}
	}
	matchable := true
	for vi := range q.Vertices {
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
	return matches, stats
}

// search runs the rounds of Algorithm 3 over the pruned candidate lists.
func (m *matcher) search(stats *MatchStats) {
	m.scoreTerms()
	m.st = newSearchState(len(m.q.Vertices), len(m.q.Edges))

	anchors := m.anchorVertices()
	if len(anchors) == 0 {
		// Every vertex is unconstrained (an all-wh question): enumerate
		// graph vertices as the anchor for vertex 0.
		m.enumerateUnanchored()
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
	m.vlog, m.vbest = make([][]float64, nv), make([]float64, nv)
	for vi := range m.q.Vertices {
		if m.q.Vertices[vi].Unconstrained {
			continue // binds anything with δ = 1: term 0
		}
		m.vlog[vi] = make([]float64, len(m.cands[vi]))
		for i, c := range m.cands[vi] {
			m.vlog[vi][i] = vertexTerm(c.Score)
		}
		m.vbest[vi] = best(m.vlog[vi])
	}
	m.elog, m.ebest = make([][]float64, ne), make([]float64, ne)
	for ei := range m.q.Edges {
		m.elog[ei] = make([]float64, len(m.q.Edges[ei].Candidates))
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
// directly when via is store.None), which adds term to the score. cost is
// the seed's cheapest incident-edge frontier, used to order the round.
type seedTask struct {
	vi   int
	u    store.ID
	via  store.ID
	term float64
	cost int
}

// roundTasks expands the TA cursors at position round into per-seed work
// items — the searchFromAnchor calls of Algorithm 3, with class candidates
// unrolled to their instances. Seeds run cheapest-first: each is costed by
// the smallest frontier among its vertex's incident edges (the first
// extension chooseNext would take), so selective seeds fill the top-k early
// and the cut rises sooner. The sort is stable over a deterministic
// expansion (anchors in order, instances in adjacency order) and the cost
// is a pure graph statistic, so every store layout sees the same task
// order.
func (m *matcher) roundTasks(anchors []int, round int) []seedTask {
	var tasks []seedTask
	for _, vi := range anchors {
		if round >= len(m.cands[vi]) {
			continue
		}
		c, term := m.cands[vi][round], m.vlog[vi][round]
		m.probes++
		if c.IsClass {
			for _, u := range m.instancesOf(c.ID) {
				tasks = append(tasks, seedTask{vi: vi, u: u, via: c.ID, term: term})
			}
		} else {
			tasks = append(tasks, seedTask{vi: vi, u: c.ID, via: store.None, term: term})
		}
	}
	if m.hints {
		m.hintSeeds(tasks)
	}
	for i := range tasks {
		tasks[i].cost = m.seedCost(tasks[i].vi, tasks[i].u)
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].cost < tasks[j].cost })
	return tasks
}

// instancesOf returns the instance entities of class c (the subjects of
// ⟨s, rdf:type, c⟩ triples): the class's in-span over rdf:type — the same
// (Pred,To)-sorted run at every shard count, so the seed order is too.
func (m *matcher) instancesOf(c store.ID) []store.ID {
	tid := m.view.TypeID()
	if tid == store.None {
		return nil
	}
	span := m.view.InPred(c, tid)
	out := make([]store.ID, len(span))
	for i := range span {
		out[i] = span[i].To
	}
	return out
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

// seedCost estimates the first extension a seed (vi, u) pays: the smallest
// frontier among vi's incident edges, mirroring the choice chooseNext will
// make from the seed state.
func (m *matcher) seedCost(vi int, u store.ID) int {
	best := -1
	for _, ei := range m.adj[vi] {
		if c := m.frontierCost(u, ei); best < 0 || c < best {
			best = c
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// runSeed explores every match rooted at one seed assignment.
func (m *matcher) runSeed(t *seedTask) {
	faultpoint.Hit(faultpoint.MatcherWorker)
	m.seeds++
	if !m.opts.Budget.Candidate() {
		return
	}
	st := m.state()
	st.assign[t.vi] = t.u
	st.via[t.vi] = t.via
	st.vterm[t.vi] = t.term
	st.done[t.vi] = true
	m.extend(st)
}

// state returns the search's one searchState as the empty assignment.
func (m *matcher) state() *searchState {
	m.st.reset(m)
	return m.st
}

// aborted reports whether the search should stop running seeds: the budget
// tripped, or the MaxMatches cap refused a match.
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
	type av struct {
		vi   int
		cost int
	}
	var all []av
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
		all = append(all, av{vi, cost})
	}
	if len(all) <= 1 {
		out := make([]int, len(all))
		for i, a := range all {
			out[i] = a.vi
		}
		return out
	}
	minCost := all[0].cost
	for _, a := range all {
		if a.cost < minCost {
			minCost = a.cost
		}
	}
	var out []int
	for _, a := range all {
		if a.cost <= 64*(minCost+1) {
			out = append(out, a.vi)
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

// thresholdReached evaluates the TA stopping rule after a complete round:
// stop when the cut — the score of the k-th best match found — is above the
// upper bound on any undiscovered match. The bound is a search state's own
// sum with every slot at its best, and every anchor at its next candidate
// (the lists are sorted, so nothing further down is better): a match not
// yet discovered binds each anchor past this round. Anchor-cost skipping
// leaves the skipped vertices at their best term — sound, since nothing
// bounds the position of their candidate in an undiscovered match. The test
// is strict: an undiscovered match that ties the cut belongs to the result.
func (m *matcher) thresholdReached(anchors []int, round int) bool {
	theta := m.res.theta
	if math.IsInf(theta, -1) {
		return false
	}
	st := m.state()
	for _, vi := range anchors {
		if round+1 >= len(m.cands[vi]) {
			// This list is exhausted: every match containing one of its
			// candidates has been enumerated, so no undiscovered match
			// exists at all.
			return true
		}
		st.vterm[vi] = m.vlog[vi][round+1]
	}
	return theta > st.total()
}

// resultSet is the top-k state of one search: the matches whose score is at
// least the cut θ, the score of the k-th best of them (−∞ until k are held).
// θ only rises, and a match that falls below it is let go, so what is held
// at the end is the returned set: the k best matches, ties at the cut
// included.
type resultSet struct {
	topK       int
	maxMatches int
	attempts   int64   // record calls (complete matches offered)
	theta      float64 // the cut θ: −∞ until topK matches are held
	refused    bool    // the MaxMatches cap turned a match away

	found   map[string]*Match // by assignmentKey
	results []*Match          // maintained sorted by descending score
}

func newResultSet(topK, maxMatches int) *resultSet {
	return &resultSet{topK: topK, maxMatches: maxMatches, theta: math.Inf(-1), found: make(map[string]*Match)}
}

// assignmentKey appends an assignment's fixed-width binary form to buf:
// the key of found. A lookup indexes the map with string(key) in place,
// which does not allocate; only holding a new match copies it.
func assignmentKey(buf []byte, assignment []store.ID) []byte {
	for _, u := range assignment {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
	}
	return buf
}

// record registers a discovered match, deduplicating by assignment and
// keeping the best-scoring justification per assignment. A match below θ
// is dropped at the door. A new assignment that arrives while MaxMatches
// are held is refused, which ends the search (MatchStats.Truncated =
// "matches").
func (rs *resultSet) record(match *Match) {
	rs.attempts++
	if match.Score < rs.theta {
		return
	}
	var kb [64]byte
	key := assignmentKey(kb[:0], match.Assignment)
	if prev, ok := rs.found[string(key)]; ok {
		if match.Score > prev.Score {
			// Same assignment, better justification: move the one entry up
			// to behind the matches already at its new score. The slices
			// must be copied, not aliased: match points at the search's
			// live backtracking state, which mutates after record returns.
			i := sort.Search(len(rs.results), func(i int) bool { return rs.results[i].Score <= prev.Score })
			for rs.results[i] != prev {
				i++
			}
			prev.Score = match.Score
			prev.Via = append(prev.Via[:0], match.Via...)
			prev.EdgePaths = append(prev.EdgePaths[:0], match.EdgePaths...)
			prev.EdgeRev = match.EdgeRev
			pos := sort.Search(i, func(j int) bool { return rs.results[j].Score < prev.Score })
			copy(rs.results[pos+1:i+1], rs.results[pos:i])
			rs.results[pos] = prev
			rs.raiseCut()
		}
		return
	}
	if len(rs.results) >= rs.maxMatches {
		rs.refused = true
		return
	}
	cp := *match
	cp.Assignment = append([]store.ID(nil), match.Assignment...)
	cp.Via = append([]store.ID(nil), match.Via...)
	cp.EdgePaths = append([]dict.Path(nil), match.EdgePaths...)
	rs.found[string(key)] = &cp
	pos := sort.Search(len(rs.results), func(i int) bool { return rs.results[i].Score < cp.Score })
	rs.results = append(rs.results, nil)
	copy(rs.results[pos+1:], rs.results[pos:])
	rs.results[pos] = &cp
	rs.raiseCut()
}

// raiseCut lifts θ to the score of the k-th best held match, if that is
// above it, and lets go of the matches now below. Called after results
// changed.
func (rs *resultSet) raiseCut() {
	if len(rs.results) >= rs.topK {
		if kth := rs.results[rs.topK-1].Score; kth > rs.theta {
			rs.theta = kth
			n := len(rs.results)
			var kb [64]byte
			for ; rs.results[n-1].Score < kth; n-- {
				delete(rs.found, string(assignmentKey(kb[:0], rs.results[n-1].Assignment)))
				rs.results[n-1] = nil
			}
			rs.results = rs.results[:n]
		}
	}
}

// harvest returns the held matches — the top k, ties at the cut included —
// in canonical order: descending score, ties by ascending assignment key,
// so the order matches tied in score were found in does not show.
func (rs *resultSet) harvest() []Match {
	var out []Match
	for _, r := range rs.results {
		out = append(out, *r)
	}
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].key()
	}
	sort.Sort(&canonicalOrder{matches: out, keys: keys})
	return out
}

// canonicalOrder sorts matches by descending score, ties by ascending
// assignment key (keys are unique: found dedups by assignment).
type canonicalOrder struct {
	matches []Match
	keys    []string
}

func (s *canonicalOrder) Len() int { return len(s.matches) }
func (s *canonicalOrder) Less(i, j int) bool {
	if s.matches[i].Score != s.matches[j].Score {
		return s.matches[i].Score > s.matches[j].Score
	}
	return s.keys[i] < s.keys[j]
}
func (s *canonicalOrder) Swap(i, j int) {
	s.matches[i], s.matches[j] = s.matches[j], s.matches[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
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

func newSearchState(nVerts, nEdges int) *searchState {
	return &searchState{
		assign: make([]store.ID, nVerts),
		via:    make([]store.ID, nVerts),
		vterm:  make([]float64, nVerts),
		paths:  make([]dict.Path, nEdges),
		eterm:  make([]float64, nEdges),
		done:   make([]bool, nVerts),
	}
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
		// Disconnected component: start it from its own candidate list.
		if m.q.Vertices[next].Unconstrained {
			// An unconstrained vertex in its own component would match
			// everything; such degenerate queries yield no useful match.
			return
		}
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
	for ci, pc := range e.Candidates {
		st.paths[bridge], st.eterm[bridge] = pc.Path, m.elog[bridge][ci]
		if m.below(st) {
			m.cuts++
			continue
		}
		targets, nFwd := m.reachable(from, pc.Path, reversedEdge)
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
	st.paths[bridge], st.eterm[bridge] = nil, m.ebest[bridge]
}

// startComponent binds next, the first vertex of a component no edge joins
// to the matched region, from its own candidate list. The caller restores
// the vertex's term.
func (m *matcher) startComponent(st *searchState, next int) {
	for ci, c := range m.cands[next] {
		st.vterm[next] = m.vlog[next][ci]
		if m.below(st) {
			m.cuts++
			continue
		}
		us := []store.ID{c.ID}
		via := store.None
		if c.IsClass {
			us = m.instancesOf(c.ID)
			via = c.ID
		}
		for _, u := range us {
			if !m.opts.Budget.Candidate() {
				return
			}
			if m.used(st, u) {
				continue
			}
			st.assign[next], st.via[next], st.done[next] = u, via, true
			m.extend(st)
			st.assign[next], st.via[next], st.done[next] = store.None, store.None, false
		}
	}
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
// pass is about to make: passesNeighborhood's, for every entity candidate.
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
						reads = append(reads,
							store.ReadHasAdjacentPred(c.ID, pc.Path[0].Pred),
							store.ReadHasAdjacentPred(c.ID, pc.Path[len(pc.Path)-1].Pred))
					}
				}
			}
		}
	}
	m.bound.Prefetch(reads)
}

// hintSeeds tells a remote view the reads that cost a round's seeds, and
// the hops behind them that the seeds' first extension walks: a frame per
// shard per hop per round, however many instances a class unrolled to.
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
		st.vterm[vi] = tasks[lo].term
		var walks []dict.Path
		for _, ei := range m.adj[vi] {
			walks = m.liveWalks(walks, st, ei)
		}
		st.vterm[vi] = m.vbest[vi]
		dict.PrefetchPaths(m.bound, seeds, walks)
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
// target of a frontier bound to query vertex next. First the type probes
// vertexAccepts makes and — for the edges at next that will still have an
// open end once next is bound — the spans frontierCost and then reachable
// read one level down; then, for the targets those probes accept and the cut
// lets extend descend under, the further hops of the multi-step walks the
// cut leaves to that level. The probes it makes itself to tell which
// targets are accepted are the ones extend's own loop makes next, and it
// asks the cut what extend asks, so a hint never reads what the search
// would not.
func (m *matcher) hintFrontier(st *searchState, next, bridge int, targets []store.ID) {
	if len(targets) == 0 {
		return
	}
	tid := m.view.TypeID()
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
	var fresh []store.ID // the targets extend will try: not bound already
	var reads []store.Read
	for _, w := range targets {
		if m.used(st, w) {
			continue
		}
		fresh = append(fresh, w)
		if !m.q.Vertices[next].Unconstrained && tid != store.None {
			for _, c := range m.cands[next] {
				if c.IsClass {
					reads = append(reads, store.ReadHas(w, tid, c.ID))
				}
			}
		}
		for _, ei := range open {
			reads = m.frontierReads(reads, w, ei)
		}
	}
	m.bound.Prefetch(reads)

	multiStep := false
	for _, ei := range open {
		multiStep = multiStep || len(m.walks[ei]) > 0
	}
	if !multiStep {
		return
	}
	type target struct {
		w    store.ID
		term float64
	}
	var accepted []target
	for _, w := range fresh {
		if vc, ok := m.vertexAccepts(next, w); ok {
			accepted = append(accepted, target{w, vc.term})
		}
	}
	// The cut sees a target only through its term (nearly always one term
	// for the whole frontier): one hint per group of equal terms.
	for len(accepted) > 0 {
		term := accepted[0].term
		var group []store.ID
		rest := accepted[:0]
		for _, t := range accepted {
			if t.term == term {
				group = append(group, t.w)
			} else {
				rest = append(rest, t)
			}
		}
		accepted = rest
		st.vterm[next] = term
		if !m.below(st) {
			var walks []dict.Path
			for _, ei := range open {
				walks = m.liveWalks(walks, st, ei)
			}
			dict.PrefetchPaths(m.bound, group, walks)
		}
	}
	st.vterm[next] = m.vbest[next]
}

// chooseNext picks the next unmatched vertex. Among query edges bridging
// the matched region (exactly one bound endpoint) it takes the one whose
// extension frontier is smallest — the selectivity ordering the snapshot's
// cheap degree statistics pay for — instead of declaration order, so the
// search fails on rare predicates before fanning out over common ones.
// Ties keep declaration order, and the cost is a pure function of the
// partial assignment, so the search tree stays deterministic; the
// canonical harvest keeps the final output byte-identical regardless.
// With no bridge edge it falls back to the first unmatched vertex (a
// disconnected component).
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
		if !st.done[vi] {
			return vi, -1
		}
	}
	return -1, -1
}

// reachable returns the vertices connected to u by path p in either
// orientation (Definition 3 condition 3). reversed means u sits at the
// edge's To side, so the recorded path is read backwards first. The first
// nFwd targets are those p reaches running From → To; the rest it reaches
// only running To → From.
func (m *matcher) reachable(u store.ID, p dict.Path, reversed bool) (targets []store.ID, nFwd int) {
	if !m.opts.Budget.Step() {
		return nil, 0
	}
	a := p
	b := p.Reverse()
	if reversed {
		a, b = b, a
	}
	out := dict.FollowPath(m.view, u, a)
	nFwd = len(out)
	more := dict.FollowPath(m.view, u, b)
	// Each FollowPath result is already distinct; only the cross-direction
	// overlap needs deduping. Typical frontiers are small, so a nested scan
	// beats allocating a map; large ones fall back to one.
	if len(out)+len(more) <= 64 {
	cross:
		for _, w := range more {
			for _, x := range out {
				if x == w {
					continue cross
				}
			}
			out = append(out, w)
		}
		return out, nFwd
	}
	seen := make(map[store.ID]struct{}, len(out))
	for _, w := range out {
		seen[w] = struct{}{}
	}
	for _, w := range more {
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
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
	var filled []int
	defer func() {
		for _, ei := range filled {
			st.paths[ei], st.eterm[ei] = nil, m.ebest[ei]
		}
	}()
	for ei := range m.q.Edges {
		if st.paths[ei] != nil {
			continue
		}
		// Choose the best candidate path connecting the endpoints.
		e := &m.q.Edges[ei]
		found := false
		for ci, pc := range e.Candidates {
			if fwd, ok := dict.PathConnects(m.view, st.assign[e.From], st.assign[e.To], pc.Path); ok {
				st.paths[ei], st.eterm[ei] = pc.Path, m.elog[ei][ci]
				st.setRev(ei, !fwd)
				filled = append(filled, ei)
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
	m.res.record(&Match{
		Assignment: st.assign,
		Via:        st.via,
		EdgePaths:  st.paths,
		EdgeRev:    st.rev,
		Score:      st.total(),
	})
}

// enumerateUnanchored handles the degenerate all-wh query ("Who married
// whom?") by trying every graph vertex as the binding of vertex 0. Such
// queries carry no candidate-list signal, so exhaustive anchoring is the
// only sound strategy, and with one score per candidate path every match of
// the best path ties: past MaxMatches of them the search stops, truncated
// ("matches"), and says so.
func (m *matcher) enumerateUnanchored() {
	if len(m.q.Vertices) == 0 {
		return
	}
	m.probes++
	st := m.state()
	for v, n := 0, m.view.NumTerms(); v < n && !m.res.refused; v++ {
		u := store.ID(v)
		if !m.view.Term(u).IsIRI() || m.view.Degree(u) == 0 {
			continue
		}
		if !m.opts.Budget.Candidate() {
			return
		}
		// extend backtracks everything it bound, so only the anchor slot
		// needs rebinding between iterations.
		st.assign[0], st.done[0] = u, true
		m.extend(st)
	}
}
