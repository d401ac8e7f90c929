package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"gqa/internal/budget"
	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// Pipeline metrics. Stage latencies are labeled by the Timing stages of
// Table 3 / Figure 6; degradations are labeled by the reason the search
// was cut short (the budget package's Reason constants). Both label sets
// are closed, so every series is pre-registered and the answer path only
// does atomic updates.
var (
	questionsTotal = obs.DefaultCounter("gqa_core_questions_total",
		"Natural-language questions answered (one pipeline run each, aggregation questions included).")
	// stageSeconds is indexed like Timing's fields.
	stageSeconds = [...]*obs.Histogram{stageHist("parse"), stageHist("understanding"),
		stageHist("evaluation"), stageHist("total")}
	degradedTotal = map[string]*obs.Counter{
		budget.ReasonDeadline:   degradedCounter(budget.ReasonDeadline),
		budget.ReasonCanceled:   degradedCounter(budget.ReasonCanceled),
		budget.ReasonSteps:      degradedCounter(budget.ReasonSteps),
		budget.ReasonCandidates: degradedCounter(budget.ReasonCandidates),
		budget.ReasonRows:       degradedCounter(budget.ReasonRows),
		budget.ReasonShard:      degradedCounter(budget.ReasonShard),
		budget.ReasonMatches:    degradedCounter(budget.ReasonMatches),
	}
)

func stageHist(stage string) *obs.Histogram {
	return obs.DefaultHistogram("gqa_core_stage_seconds",
		"Answer-pipeline stage latency (Timing stages of Figure 6).",
		nil, obs.L("stage", stage))
}

func degradedCounter(reason string) *obs.Counter {
	return obs.DefaultCounter("gqa_core_degraded_total",
		"Degraded (truncated) answers by reason.",
		obs.L("reason", reason))
}

// System is the assembled RDF Q/A engine: graph + paraphrase dictionary +
// entity linker, with the options threading through both online stages.
type System struct {
	Graph  *store.Graph
	Dict   *dict.Dictionary
	Linker *linker.Linker
	Opts   Options

	superlatives map[string]Superlative // see RegisterSuperlative
}

// Options configures the online pipeline.
type Options struct {
	// TopK is k: the k best matches are returned, counted in matches, ties
	// at the cut included (see MatchOptions.TopK). Zero means 10, the k of
	// the paper's experiments.
	TopK int
	// MaxVertexCandidates caps entity-linking lists.
	MaxVertexCandidates int
	// DisableHeuristicRules reproduces the "without the four rules" column
	// of Table 9.
	DisableHeuristicRules bool
	// DisablePruning turns off neighborhood-based pruning (ablation).
	DisablePruning bool
	// Exhaustive disables the TA early-termination rule (ablation).
	Exhaustive bool
	// EnableAggregation turns on the counting/superlative extension (the
	// paper's future work; see aggregate.go). Off by default so the
	// failure taxonomy of Table 10 reproduces.
	EnableAggregation bool
	// Budget bounds every AnswerContext call (step/candidate limits; the
	// wall-clock deadline rides on the context). The zero value plus a
	// plain Background context means no budget at all: the engine then
	// runs the exact pre-budget code path.
	Budget budget.Limits
}

// NewSystem builds a System over a loaded graph and mined dictionary.
func NewSystem(g *store.Graph, d *dict.Dictionary, opts Options) *System {
	return &System{
		Graph:  g,
		Dict:   d,
		Linker: linker.New(g, linker.Options{}),
		Opts:   opts,
	}
}

// FailureKind categorizes why a question produced no (or unreliable)
// answers, following the taxonomy of Table 10.
type FailureKind int

const (
	FailureNone FailureKind = iota
	// FailureEntityLinking: some argument mention linked to nothing.
	FailureEntityLinking
	// FailureRelationExtraction: no semantic relation could be extracted
	// and no type-only fallback applied.
	FailureRelationExtraction
	// FailureAggregation: the question needs aggregation (superlatives,
	// counts) that the approach cannot express (Table 10 category 3) — with
	// the extension on, one that does not reduce to a base question or
	// whose base question has nothing to count or rank.
	FailureAggregation
	// FailureNoMatch: a query graph was built but no subgraph match exists.
	FailureNoMatch
)

func (f FailureKind) String() string {
	switch f {
	case FailureNone:
		return "none"
	case FailureEntityLinking:
		return "entity-linking"
	case FailureRelationExtraction:
		return "relation-extraction"
	case FailureAggregation:
		return "aggregation"
	case FailureNoMatch:
		return "no-match"
	}
	return "unknown"
}

// Timing breaks the online time into the stages of Table 3 / Figure 6.
// Parse, Understanding and Evaluation tile the question: without an
// aggregation operator they sum to Total exactly, and with one Total also
// covers applying it. Figure 6's understanding, which includes parsing, is
// Parse + Understanding.
type Timing struct {
	Parse         time.Duration // dependency tree construction
	Understanding time.Duration // relations + Q^S, after the parse
	Evaluation    time.Duration // phrase mapping + top-k matching
	Total         time.Duration
}

// stageClock times one question's stages. Each boundary is read once: the
// reading ends the open stage — its Timing field and, when traced, its
// span — and starts the next, so the Timing, the stage histograms and the
// spans are the same intervals.
type stageClock struct {
	root, span *obs.Span
	open       *time.Duration // the open stage's Timing field; nil when none
	start, at  time.Time
}

// next closes the open stage and opens the stage named name, timed into d.
func (c *stageClock) next(name string, d *time.Duration) {
	now := c.stop()
	c.span, c.open = c.root.ChildAt(name, now), d
}

// stop closes the open stage, if any, and returns the reading it took.
func (c *stageClock) stop() time.Time {
	now := time.Now()
	if c.open != nil {
		*c.open = now.Sub(c.at)
		c.span.FinishAt(now)
		c.open = nil
	}
	c.at = now
	return now
}

// Result is the full outcome of answering one question.
type Result struct {
	Question string
	// Tree is the parse the pipeline understood: for an aggregation
	// question the extension reduced, its base question's.
	Tree      *nlp.DepTree
	Relations []SemanticRelation
	Query     *QueryGraph
	Matches   Matches
	// Answers are the bindings of the select vertex across the top-k
	// matches, best first, deduplicated.
	Answers []store.ID
	// Boolean is set for ASK-style questions (no select vertex).
	Boolean *bool
	// Count is set for counting questions when the aggregation extension
	// is enabled ("How many …"); Answers is then empty.
	Count *int
	// Aggregated reports that the aggregation extension's operator produced
	// Count or Answers from the base question's answers; Matches are the
	// base question's.
	Aggregated bool
	Failure    FailureKind
	Timing     Timing
	Stats      MatchStats
	// Degraded is why the pipeline was cut short (MatchStats.Truncated: a
	// budget reason, "shard-unavailable", or "matches" when more matches
	// tied at the top-k cut than the matcher holds) and the result holds
	// the best partial answers found; "" otherwise.
	Degraded string
}

// Answer runs the full online pipeline of §4 on one natural-language
// question with no budget.
func (s *System) Answer(question string) (*Result, error) {
	return s.AnswerContext(context.Background(), question)
}

// AnswerContext runs the full online pipeline of §4 on one natural-language
// question under ctx and the system's budget limits. When the budget runs
// out mid-search the pipeline degrades instead of hanging: the Result
// carries the best partial top-k found so far and Degraded names the
// exhausted resource. With a Background context and zero limits the
// behavior is bit-identical to Answer before budgets existed.
//
// An aggregation question runs the pipeline once too: the parse stage
// reduces it to its base question, and the operator is applied to the base
// question's answers (aggregate.go).
func (s *System) AnswerContext(ctx context.Context, question string) (out *Result, err error) {
	if strings.TrimSpace(question) == "" {
		return nil, errors.New("core: empty question")
	}
	tr := budget.New(ctx, s.Opts.Budget)
	clk := stageClock{root: obs.TraceFrom(ctx).Root()}
	questionsTotal.Inc()
	defer func() { s.finishAnswer(&clk, tr, out) }()

	// ---- Stage 1: question understanding (§4.1). The parse's first
	// reading is the question's start.
	res := &Result{Question: question}
	clk.next("nlp.parse", &res.Timing.Parse)
	clk.start = clk.at
	y, err := nlp.Parse(question)
	if err != nil {
		return nil, err
	}
	clk.span.SetInt("tokens", int64(y.Size()))
	agg, op := s.aggregation(y)
	if op != nil {
		if y, err = nlp.ParseTokens(op.base); err != nil {
			return nil, err
		}
		// One operator per question: a base question that is itself an
		// aggregation is not reduced again.
		if nested, _ := s.aggregation(y); nested {
			op = nil
		}
	}
	res.Tree = y
	if agg && op == nil {
		res.Failure = FailureAggregation
		return res, nil
	}
	view := s.evaluate(tr, &clk, res)
	if op != nil {
		// The operator's time counts in Total, outside every stage.
		clk.stop()
		res = op.apply(res, view, tr, clk.root)
	}
	return res, nil
}

// evaluate builds Q^S over res.Tree (§4.1) and matches it (§4.2), filling
// res, each stage opened on clk; an early exit leaves its stage open for
// finishAnswer to close. It returns the view the search read, nil when
// none ran.
func (s *System) evaluate(tr *budget.Tracker, clk *stageClock, res *Result) store.View {
	y := res.Tree
	clk.next("core.understand", &res.Timing.Understanding)
	res.Relations = ExtractRelations(y, s.Dict, ExtractOptions{
		DisableHeuristicRules: s.Opts.DisableHeuristicRules,
	})
	if len(res.Relations) == 0 {
		// Type-only fallback: "Give me all Argentine films." has no
		// relation phrase; the focus NP alone defines an instance query.
		if res.Query = s.typeOnlyQuery(y); res.Query == nil {
			res.Failure = FailureRelationExtraction
			return nil
		}
	} else {
		res.Query = BuildQueryGraph(y, res.Relations, s.Linker, BuildOptions{
			MaxVertexCandidates: s.Opts.MaxVertexCandidates,
		})
	}
	if usp := clk.span; usp.Enabled() {
		usp.SetInt("relations", int64(len(res.Relations)))
		usp.SetInt("vertices", int64(len(res.Query.Vertices)))
		usp.SetInt("edges", int64(len(res.Query.Edges)))
		cands := 0
		for _, v := range res.Query.Vertices {
			cands += len(v.Candidates)
		}
		usp.SetInt("candidates", int64(cands))
	}

	// Entity-linking failure: a constrained vertex with no candidates.
	for _, v := range res.Query.Vertices {
		if !v.Unconstrained && len(v.Candidates) == 0 {
			res.Failure = FailureEntityLinking
			return nil
		}
	}

	// ---- Stage 2: query evaluation (§4.2). A deadline that expired during
	// understanding is caught here, before the expensive search starts.
	tr.Check()
	clk.next("core.match", &res.Timing.Evaluation)
	view := s.Graph.FrozenView()
	matches, stats := FindTopKMatches(s.Graph, res.Query, MatchOptions{
		TopK:           s.Opts.TopK,
		DisablePruning: s.Opts.DisablePruning,
		Exhaustive:     s.Opts.Exhaustive,
		Budget:         tr,
		Span:           clk.span,
		View:           view,
	})
	res.Matches = matches
	res.Stats = stats
	res.Degraded = stats.Truncated

	sel := res.Query.SelectVertex()
	if sel < 0 {
		b := matches.Len() > 0
		res.Boolean = &b
		return view
	}
	if res.Answers = selectAnswers(matches, sel); len(res.Answers) == 0 {
		res.Failure = FailureNoMatch
	}
	return view
}

// selectAnswers returns the select vertex sel's bindings across the
// best-scoring matches only (ties included), each once, in the order they
// first occur: the top score is the resolved disambiguation; lower-ranked
// matches are alternative readings kept for inspection. ("Which city is
// the capital of Germany?" must answer Berlin, not also the cities a
// weaker candidate path reaches.)
//
// Matches of one score are in assignment-key order, whose first segment
// is vertex 0's binding, so for sel = 0 a repeat follows its first
// occurrence. Otherwise it dedupes by sorting packed (binding, match
// index) keys, keeping the first of each binding, and sorting those back
// into match order.
func selectAnswers(ms Matches, sel int) []store.ID {
	top := 0
	for top < ms.Len() && ms.Score(top) == ms.Score(0) {
		top++
	}
	if top == 0 {
		return nil
	}
	if sel == 0 || top == 1 {
		out := make([]store.ID, 0, top)
		for i := range top {
			if u := ms.Assignment(i)[sel]; len(out) == 0 || u != out[len(out)-1] {
				out = append(out, u)
			}
		}
		return out
	}
	keys := make([]uint64, top)
	for i := range keys {
		keys[i] = uint64(ms.Assignment(i)[sel])<<32 | uint64(i)
	}
	slices.Sort(keys)
	n, prev := 0, uint64(1)<<32 // above every binding
	for _, k := range keys {
		if u := k >> 32; u != prev {
			keys[n], prev = k<<32|u, u
			n++
		}
	}
	keys = keys[:n]
	slices.Sort(keys)
	out := make([]store.ID, n)
	for i, k := range keys {
		out[i] = store.ID(k)
	}
	return out
}

// finishAnswer closes the open stage — the one place every exit does —
// and flushes the per-question timing, metrics and root-span attributes
// once the pipeline has its result (deferred by AnswerContext). The trace
// records stages, not matches: a question can tie 10 000 of them, and the
// caller that reads them (the facade's Explain) renders them itself.
func (s *System) finishAnswer(clk *stageClock, tr *budget.Tracker, res *Result) {
	end := clk.stop()
	if res == nil {
		return
	}
	t := &res.Timing
	t.Total = end.Sub(clk.start)
	for i, d := range [...]time.Duration{t.Parse, t.Understanding, t.Evaluation, t.Total} {
		if d > 0 {
			stageSeconds[i].ObserveDuration(d)
		}
	}
	sp := clk.root
	if c, ok := degradedTotal[res.Degraded]; ok {
		c.Inc()
	}
	if !sp.Enabled() {
		return
	}
	if res.Failure != FailureNone {
		sp.SetStr("failure", res.Failure.String())
	}
	if res.Degraded != "" {
		sp.SetStr("degraded", res.Degraded)
	}
	sp.SetInt("answers", int64(len(res.Answers)))
	steps, cands, rows := tr.Spent()
	if steps+cands+rows > 0 {
		sp.SetInt("budget_steps", steps)
		sp.SetInt("budget_candidates", cands)
		sp.SetInt("budget_rows", rows)
	}
}

// RenderMatch renders one match in the explain format: the resolved
// disambiguation of §4.2.1 — which entity each argument mapped to (with
// the class justifying it) and which predicate path realized each edge.
func RenderMatch(g *store.Graph, q *QueryGraph, m *Match) string {
	line := fmt.Sprintf("score=%.3f:", m.Score)
	for vi, u := range m.Assignment {
		label := g.LabelOf(u)
		if m.Via[vi] != store.None {
			label += " (a " + g.LabelOf(m.Via[vi]) + ")"
		}
		line += fmt.Sprintf(" %q→%s", q.Vertices[vi].Arg.Text, label)
	}
	for ei, p := range m.EdgePaths {
		line += fmt.Sprintf(" [%s via %s]", q.Edges[ei].Phrase.Text, p.Render(g))
	}
	return line
}

// typeOnlyQuery builds a single-vertex Q^S from the question's focus NP
// when no relation phrase exists: the wh/dobj NP is linked and its class
// reading answers via instance enumeration during matching. Returns nil
// when no linkable focus exists.
func (s *System) typeOnlyQuery(y *nlp.DepTree) *QueryGraph {
	focus := -1
	for i := 0; i < y.Size(); i++ {
		n := y.Node(i)
		if (n.Rel == nlp.RelDobj || n.Rel == nlp.RelNsubj || n.Head == -1) && nlp.IsNounTag(n.Tag) {
			focus = i
			break
		}
	}
	if focus < 0 {
		return nil
	}
	arg := makeArgument(y, focus)
	cands := s.Linker.Link(arg.Text, max(s.Opts.MaxVertexCandidates, 10))
	var vcs []VertexCandidate
	for _, c := range cands {
		if c.IsClass {
			vcs = append(vcs, VertexCandidate{ID: c.ID, IsClass: true, Score: c.Score})
		}
	}
	if len(vcs) == 0 {
		return nil
	}
	// Keep only the best class reading: without an edge to disambiguate,
	// enumerating instances of every weakly-similar class would flood the
	// answer set.
	sort.SliceStable(vcs, func(i, j int) bool { return vcs[i].Score > vcs[j].Score })
	vcs = vcs[:1]
	q := &QueryGraph{Vertices: []Vertex{{Arg: arg, Candidates: vcs, Select: true}}}
	return q
}
