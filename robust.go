package gqa

// Robustness layer of the facade: per-question budgets, context-aware
// entry points, and panic containment. A serving deployment answers
// questions from untrusted users, and the top-k subgraph search is
// worst-case exponential in the query graph — one pathological question
// must never wedge a goroutine or take down the process. AnswerContext
// and QueryContext honor context deadlines/cancellation plus the step,
// candidate, and row limits in Options.Budget, degrade to the best
// partial result found in time (Answer.Degraded / Result.Truncated name
// the exhausted resource), and convert pipeline panics into structured
// *PipelineError values instead of crashing.

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"gqa/internal/budget"
	"gqa/internal/obs"
	"gqa/internal/sparql"
)

// Budget bounds the resources one question (or SPARQL query) may consume.
// The zero value means unlimited everywhere; the engine then behaves
// bit-identically to the budget-free pipeline.
type Budget struct {
	// Timeout is the wall-clock budget per call. AnswerContext and
	// QueryContext additionally honor any deadline or cancellation on the
	// caller's context; whichever is tighter wins. Zero means no timeout.
	Timeout time.Duration
	// MaxSearchSteps caps subgraph-search extensions (and SPARQL join
	// steps): the unit of work of Algorithm 2/3's exploration.
	MaxSearchSteps int64
	// MaxCandidates caps candidate entity expansions during anchored
	// search (a class anchor can expand to tens of thousands of seeds).
	MaxCandidates int64
	// MaxSPARQLRows caps rows materialized by the SPARQL join before
	// projection.
	MaxSPARQLRows int64
}

// limits converts the facade budget to the internal form (the wall-clock
// part rides on the context instead).
func (b Budget) limits() budget.Limits {
	return budget.Limits{
		MaxSteps:      b.MaxSearchSteps,
		MaxCandidates: b.MaxCandidates,
		MaxRows:       b.MaxSPARQLRows,
	}
}

// Shed-tier floors: the effective limits a tier-1 shed imposes on a field
// the operator left unlimited, halved per further tier. Without floors an
// unbudgeted system would be immune to shedding — the opposite of what an
// overloaded server needs.
const (
	shedMaxTier        = 3 // matches admission.MaxTier
	shedFloorTimeout   = 2 * time.Second
	shedFloorSteps     = int64(1) << 20
	shedFloorCandidate = int64(1) << 16
	shedFloorRows      = int64(1) << 20
)

// Shed returns the budget at a shed tier: every finite limit is halved
// per tier, and unlimited (zero) limits acquire a finite tier-1 floor so
// shedding bites even on an unbudgeted system. Tier 0 (or less) is the
// identity; tiers beyond 3 clamp to 3. The serving layer calls this with
// the admission controller's pressure tier so an overloaded server
// degrades answer quality in grades instead of tipping over.
func (b Budget) Shed(tier int) Budget {
	if tier <= 0 {
		return b
	}
	if tier > shedMaxTier {
		tier = shedMaxTier
	}
	return Budget{
		Timeout:        shedDuration(b.Timeout, tier),
		MaxSearchSteps: shedLimit(b.MaxSearchSteps, tier, shedFloorSteps),
		MaxCandidates:  shedLimit(b.MaxCandidates, tier, shedFloorCandidate),
		MaxSPARQLRows:  shedLimit(b.MaxSPARQLRows, tier, shedFloorRows),
	}
}

// shedLimit halves a finite limit per tier (never below 1); an unlimited
// limit starts from the tier-1 floor.
func shedLimit(v int64, tier int, floor int64) int64 {
	if v == 0 {
		return max(floor>>(tier-1), 1)
	}
	return max(v>>tier, 1)
}

// shedDuration is shedLimit over wall-clock time (never below 1ms).
func shedDuration(d time.Duration, tier int) time.Duration {
	if d == 0 {
		return max(shedFloorTimeout>>(tier-1), time.Millisecond)
	}
	return max(d>>tier, time.Millisecond)
}

// PipelineError is a panic from the answering pipeline converted into a
// structured error: the input that triggered it, the stage it escaped
// from, the panic value, and the stack. The engine never lets a
// pathological question crash the process; it returns one of these.
type PipelineError struct {
	// Input is the question (stage "answer"/"explain") or the SPARQL
	// source (stage "query") being processed when the panic fired.
	Input string
	// Stage is "answer", "explain", or "query".
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PipelineError) Error() string {
	return fmt.Sprintf("gqa: panic in %s pipeline for %q: %v", e.Stage, e.Input, e.Value)
}

// recoverPipeline converts an in-flight panic into a *PipelineError
// assigned to *err. Deferred by every facade entry point.
func recoverPipeline(stage, input string, err *error) {
	if r := recover(); r != nil {
		*err = &PipelineError{Input: input, Stage: stage, Value: r, Stack: debug.Stack()}
	}
}

// withTimeout layers the budget's wall-clock timeout onto ctx.
func (s *System) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.budget.Timeout > 0 {
		return context.WithTimeout(ctx, s.budget.Timeout)
	}
	return ctx, func() {}
}

// AnswerContext answers a natural-language question under ctx and the
// system's Budget. When the budget runs out mid-search, the call returns
// promptly with the best partial top-k found so far and Answer.Degraded
// set to the exhausted resource ("deadline", "canceled", "steps",
// "candidates"); a panic anywhere in the pipeline surfaces as a
// *PipelineError. With a Background context and a zero Budget the results
// are identical to Answer's.
func (s *System) AnswerContext(ctx context.Context, question string) (*Answer, error) {
	return s.AnswerShed(ctx, question, 0)
}

// AnswerShed is AnswerContext under a load-shedding tier: the system's
// Budget is shrunk by Budget.Shed(tier) for this call only, so a server
// under pressure spends less per question instead of queueing unboundedly.
// Tier 0 is exactly AnswerContext. A tier-shed answer that ran the
// pipeline reports the tier in Answer.ShedTier and prefixes
// Answer.Degraded with "shed:tierN" — but an answer whose search
// completed within the shrunken budget is still the full, exact answer
// (budgets only truncate when exhausted), so the cache layer stores it
// under its normal key and serves it at any tier.
func (s *System) AnswerShed(ctx context.Context, question string, tier int) (ans *Answer, err error) {
	defer recoverPipeline("answer", question, &err)
	eff, eng := s.budget, s.core
	if tier > 0 {
		eff = s.budget.Shed(tier)
		// A per-call engine copy carries the shed limits; everything else
		// (graph, dictionary, linker, superlatives) is shared and read-only.
		shedEng := *s.core
		shedEng.Opts.Budget = eff.limits()
		eng = &shedEng
	}
	if eff.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, eff.Timeout)
		defer cancel()
	}
	// Re-freeze at the current mutation generation: a pointer load when the
	// graph is unchanged, a rebuild (traced as "store.freeze") after
	// maintenance mutated it, so questions always run on the CSR snapshot.
	s.graph.FreezeCtx(ctx)
	if s.cache != nil {
		ans, err = s.answerCached(ctx, question, eng, tier)
	} else {
		res, rerr := eng.AnswerContext(ctx, question)
		if rerr != nil {
			err = rerr
		} else {
			ans = shedAnnotate(s.buildAnswer(res), tier)
		}
	}
	if ans != nil {
		ans.TraceID = obs.TraceFrom(ctx).ID()
	}
	return ans, err
}

// shedAnnotate marks an answer that ran the pipeline under a shed budget:
// ShedTier records the tier, and Degraded gains a "shed:tierN" prefix —
// alone for a search that completed inside the shrunken budget, joined to
// the exhaustion reason ("shed:tier2/steps") when the shed budget is what
// cut the search short. Cache hits are never annotated: they cost no
// pipeline work, so no shedding applied.
func shedAnnotate(a *Answer, tier int) *Answer {
	if tier <= 0 || a == nil {
		return a
	}
	a.ShedTier = tier
	if a.Degraded == "" {
		a.Degraded = fmt.Sprintf("shed:tier%d", tier)
	} else {
		a.Degraded = fmt.Sprintf("shed:tier%d/%s", tier, a.Degraded)
	}
	return a
}

// AnswerTraced is AnswerContext with per-question tracing enabled: the
// returned Answer carries the question's span tree (Answer.Trace) — stage
// timings, candidate counts, matcher rounds, budget spent — rendered with
// Trace.Tree() or Trace.JSON(). Tracing is per-call: concurrent untraced
// questions still take the zero-overhead nil-trace path. A caller that
// already carries a trace on ctx (obs.WithTrace) can use AnswerContext
// directly; this wrapper exists so the common case needs no obs import.
func (s *System) AnswerTraced(ctx context.Context, question string) (*Answer, error) {
	tr := obs.NewTrace("answer", question)
	ans, err := s.AnswerContext(obs.WithTrace(ctx, tr), question)
	tr.Finish()
	if ans != nil {
		ans.Trace = tr
	}
	return ans, err
}

// QueryContext evaluates a SPARQL query under ctx and the system's
// Budget. An exhausted budget yields the rows found so far with
// Result.Truncated set; panics surface as *PipelineError.
func (s *System) QueryContext(ctx context.Context, query string) (res *sparql.Result, err error) {
	defer recoverPipeline("query", query, &err)
	ctx, cancel := s.withTimeout(ctx)
	defer cancel()
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	s.graph.FreezeCtx(ctx)
	return sparql.EvalContext(ctx, s.graph, q, s.budget.limits())
}
