package core

import (
	"context"
	"errors"
	"fmt"
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
	stageSeconds = map[string]*obs.Histogram{
		"parse":         stageHist("parse"),
		"understanding": stageHist("understanding"),
		"evaluation":    stageHist("evaluation"),
		"total":         stageHist("total"),
	}
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
type Timing struct {
	Parse         time.Duration // dependency tree construction
	Understanding time.Duration // relations + Q^S (includes Parse)
	Evaluation    time.Duration // phrase mapping + top-k matching
	Total         time.Duration
}

// Result is the full outcome of answering one question.
type Result struct {
	Question string
	// Tree is the parse the pipeline understood: for an aggregation
	// question the extension reduced, its base question's.
	Tree      *nlp.DepTree
	Relations []SemanticRelation
	Query     *QueryGraph
	Matches   []Match
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

// AnswerLabels renders the answers with the graph's labels.
func (r *Result) AnswerLabels(g *store.Graph) []string {
	out := make([]string, len(r.Answers))
	for i, id := range r.Answers {
		out[i] = g.LabelOf(id)
	}
	return out
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
	sp := obs.TraceFrom(ctx).Root()
	questionsTotal.Inc()
	defer func() { s.finishAnswer(sp, tr, out) }()
	start := time.Now()

	// ---- Stage 1: question understanding (§4.1).
	psp := sp.Child("nlp.parse")
	y, err := nlp.Parse(question)
	var (
		agg bool
		op  *aggregate
	)
	if err == nil {
		psp.SetInt("tokens", int64(y.Size()))
		if agg, op = s.aggregation(y); op != nil {
			y, err = nlp.ParseTokens(op.base)
		}
	}
	psp.Finish()
	if err != nil {
		return nil, err
	}
	res := &Result{Question: question, Tree: y}
	res.Timing.Parse = time.Since(start)
	if op != nil {
		// One operator per question: a base question that is itself an
		// aggregation is not reduced again.
		if nested, _ := s.aggregation(y); nested {
			op = nil
		}
	}
	if agg && op == nil {
		res.Failure = FailureAggregation
		res.Timing.Understanding = time.Since(start)
		res.Timing.Total = res.Timing.Understanding
		return res, nil
	}
	view := s.evaluate(tr, sp, res, start)
	if op != nil {
		res = op.apply(res, view, tr, sp)
		res.Timing.Total = time.Since(start)
	}
	return res, nil
}

// evaluate builds Q^S over res.Tree (§4.1) and matches it (§4.2), filling
// res. It returns the view the search read, nil when none ran.
func (s *System) evaluate(tr *budget.Tracker, sp *obs.Span, res *Result, start time.Time) store.View {
	y := res.Tree
	usp := sp.Child("core.understand")
	res.Relations = ExtractRelations(y, s.Dict, ExtractOptions{
		DisableHeuristicRules: s.Opts.DisableHeuristicRules,
	})
	if len(res.Relations) == 0 {
		// Type-only fallback: "Give me all Argentine films." has no
		// relation phrase; the focus NP alone defines an instance query.
		if q := s.typeOnlyQuery(y); q != nil {
			res.Query = q
		} else {
			usp.Finish()
			res.Failure = FailureRelationExtraction
			res.Timing.Understanding = time.Since(start)
			res.Timing.Total = res.Timing.Understanding
			return nil
		}
	} else {
		res.Query = BuildQueryGraph(y, res.Relations, s.Linker, BuildOptions{
			MaxVertexCandidates: s.Opts.MaxVertexCandidates,
		})
	}
	if usp.Enabled() {
		usp.SetInt("relations", int64(len(res.Relations)))
		usp.SetInt("vertices", int64(len(res.Query.Vertices)))
		usp.SetInt("edges", int64(len(res.Query.Edges)))
		cands := 0
		for _, v := range res.Query.Vertices {
			cands += len(v.Candidates)
		}
		usp.SetInt("candidates", int64(cands))
	}
	usp.Finish()
	res.Timing.Understanding = time.Since(start)

	// Entity-linking failure: a constrained vertex with no candidates.
	for _, v := range res.Query.Vertices {
		if !v.Unconstrained && len(v.Candidates) == 0 {
			res.Failure = FailureEntityLinking
			res.Timing.Total = time.Since(start)
			return nil
		}
	}

	// ---- Stage 2: query evaluation (§4.2). A deadline that expired during
	// understanding is caught here, before the expensive search starts.
	tr.Check()
	evalStart := time.Now()
	msp := sp.Child("core.match")
	view := s.Graph.FrozenView()
	matches, stats := FindTopKMatches(s.Graph, res.Query, MatchOptions{
		TopK:           s.Opts.TopK,
		DisablePruning: s.Opts.DisablePruning,
		Exhaustive:     s.Opts.Exhaustive,
		Budget:         tr,
		Span:           msp,
		View:           view,
	})
	msp.Finish()
	res.Matches = matches
	res.Stats = stats
	res.Degraded = stats.Truncated
	res.Timing.Evaluation = time.Since(evalStart)
	res.Timing.Total = time.Since(start)

	sel := res.Query.SelectVertex()
	if sel < 0 {
		b := len(matches) > 0
		res.Boolean = &b
		return view
	}
	// Answers come from the best-scoring matches only (ties included): the
	// top score is the resolved disambiguation; lower-ranked matches are
	// alternative readings kept for inspection. ("Which city is the
	// capital of Germany?" must answer Berlin, not also the cities a
	// weaker candidate path reaches.)
	seen := make(map[store.ID]struct{})
	for _, m := range matches {
		if m.Score != matches[0].Score {
			break
		}
		u := m.Assignment[sel]
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		res.Answers = append(res.Answers, u)
	}
	if len(res.Answers) == 0 {
		res.Failure = FailureNoMatch
	}
	return view
}

// finishAnswer flushes the per-question metrics and root-span attributes
// once the pipeline has its result (deferred by AnswerContext). The trace
// records stages, not matches: a question can tie 10 000 of them, and the
// caller that reads them (the facade's Explain) renders them itself.
func (s *System) finishAnswer(sp *obs.Span, tr *budget.Tracker, res *Result) {
	if res == nil {
		return
	}
	if res.Timing.Parse > 0 {
		stageSeconds["parse"].ObserveDuration(res.Timing.Parse)
	}
	if res.Timing.Understanding > 0 {
		stageSeconds["understanding"].ObserveDuration(res.Timing.Understanding)
	}
	if res.Timing.Evaluation > 0 {
		stageSeconds["evaluation"].ObserveDuration(res.Timing.Evaluation)
	}
	if res.Timing.Total > 0 {
		stageSeconds["total"].ObserveDuration(res.Timing.Total)
	}
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
