// Package budget implements the resource budget threaded through the
// online answering pipeline. The top-k subgraph search (Algorithm 2/3) is
// worst-case exponential in the query graph, and the SPARQL backtracking
// join is no better; under serving traffic a single pathological question
// must never wedge a goroutine. A Tracker carries a wall-clock deadline
// (from a context.Context), a cancellation signal, and step/candidate/row
// counters; the hot loops call the cheap counting methods and the engine
// degrades to the best partial result found when the budget is exhausted.
//
// A nil *Tracker is the "no budget" tracker: every method is safe to call
// on it and reports unlimited headroom, so budget-free runs take the exact
// code path they took before budgets existed.
//
// A Tracker is safe for concurrent use: the parallel matcher shares one
// Tracker across its worker pool, so the counters are atomics and
// accounting stays exact — every unit of work performed is counted exactly
// once, and with MaxSteps = n exactly n Step calls succeed regardless of
// how many goroutines race on them. Exhaustion is sticky and propagates to
// every worker on its next counting call.
package budget

import (
	"context"
	"sync/atomic"
	"time"
)

// Reasons a budget can be exhausted, surfaced as MatchStats.Truncated,
// sparql.Result.Truncated, and gqa.Answer.Degraded.
const (
	ReasonDeadline   = "deadline"   // wall-clock deadline passed
	ReasonCanceled   = "canceled"   // context canceled by the caller
	ReasonSteps      = "steps"      // search/join step limit hit
	ReasonCandidates = "candidates" // candidate-expansion limit hit
	ReasonRows       = "rows"       // SPARQL row limit hit
	// ReasonShard marks a request whose remote shard reads failed after
	// retries (a shard server down or unreachable mid-round). The search
	// degrades to the best partial result, exactly like a deadline trip.
	ReasonShard = "shard-unavailable"
	// ReasonMatches marks a search the matcher's MaxMatches cap ended: more
	// matches tied at the top-k cut than it holds at once. No Tracker
	// reports it (it is not a limit of this package); it is listed here
	// because it travels the same way, as MatchStats.Truncated.
	ReasonMatches = "matches"
)

// Interned reason values so exhaustion never allocates on the hot path.
var (
	reasonDeadline   = ReasonDeadline
	reasonCanceled   = ReasonCanceled
	reasonSteps      = ReasonSteps
	reasonCandidates = ReasonCandidates
	reasonRows       = ReasonRows
	reasonShard      = ReasonShard
)

// Limits bounds one unit of work. The zero value means unlimited.
type Limits struct {
	// MaxSteps caps search-loop iterations: matcher extend/reachable calls
	// and SPARQL join steps.
	MaxSteps int64
	// MaxCandidates caps candidate entity expansions during anchoring.
	MaxCandidates int64
	// MaxRows caps SPARQL result rows materialized before projection.
	MaxRows int64
}

// Zero reports whether no limit is set.
func (l Limits) Zero() bool {
	return l.MaxSteps == 0 && l.MaxCandidates == 0 && l.MaxRows == 0
}

// Tracker is the per-request budget state, shared by every goroutine
// working on the request (New is cheap; build one per request).
type Tracker struct {
	done        <-chan struct{}
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool

	limits Limits
	steps  atomic.Int64
	cands  atomic.Int64
	rows   atomic.Int64
	// reason points at one of the interned Reason* strings once exhausted;
	// the first exhaustion wins (CompareAndSwap) so concurrent workers
	// agree on a single reason.
	reason atomic.Pointer[string]
}

// New builds a Tracker for one request. It returns nil — the unlimited
// tracker — when ctx carries no deadline or cancellation signal and the
// limits are zero, guaranteeing budget-free calls behave bit-identically
// to the pre-budget engine.
func New(ctx context.Context, l Limits) *Tracker {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && ctx.Done() == nil && l.Zero() {
		return nil
	}
	return &Tracker{
		done:        ctx.Done(),
		ctx:         ctx,
		deadline:    deadline,
		hasDeadline: hasDeadline,
		limits:      l,
	}
}

// fail records the exhaustion reason; the first caller wins.
func (t *Tracker) fail(reason *string) {
	t.reason.CompareAndSwap(nil, reason)
}

// FailShardUnavailable records a remote-shard failure as the exhaustion
// reason (first exhaustion still wins — a request that already tripped
// its deadline stays "deadline"). The shard-RPC client calls this after
// its retries are spent, so the degradation surfaces through the same
// MatchStats.Truncated → Answer.Degraded path as every budget trip.
// Safe on the nil tracker (no-op — an unbudgeted caller still gets empty
// reads, never a hang).
func (t *Tracker) FailShardUnavailable() {
	if t == nil {
		return
	}
	t.fail(&reasonShard)
}

// Deadline reports the tracker's wall-clock deadline, when one is set.
// The shard-RPC client derives per-call deadlines from it (a call never
// outlives the request it serves). The nil tracker has none.
func (t *Tracker) Deadline() (time.Time, bool) {
	if t == nil {
		return time.Time{}, false
	}
	return t.deadline, t.hasDeadline
}

// Step records one unit of search work and reports whether the budget
// still has headroom. After exhaustion it keeps returning false, so deep
// recursions unwind promptly. The deadline/cancellation poll in
// checkSignals costs a clock read only when a deadline is actually set,
// so pure step/candidate budgets stay a few atomic ops per unit.
func (t *Tracker) Step() bool {
	if t == nil {
		return true
	}
	if t.reason.Load() != nil {
		return false
	}
	if n := t.steps.Add(1); t.limits.MaxSteps > 0 && n > t.limits.MaxSteps {
		t.fail(&reasonSteps)
		return false
	}
	return t.checkSignals()
}

// Candidate records one candidate entity expansion.
func (t *Tracker) Candidate() bool {
	if t == nil {
		return true
	}
	if t.reason.Load() != nil {
		return false
	}
	if n := t.cands.Add(1); t.limits.MaxCandidates > 0 && n > t.limits.MaxCandidates {
		t.fail(&reasonCandidates)
		return false
	}
	return t.checkSignals()
}

// Row records one materialized SPARQL row.
func (t *Tracker) Row() bool {
	if t == nil {
		return true
	}
	if t.reason.Load() != nil {
		return false
	}
	if n := t.rows.Add(1); t.limits.MaxRows > 0 && n > t.limits.MaxRows {
		t.fail(&reasonRows)
		return false
	}
	return t.checkSignals()
}

// Check forces an immediate deadline/cancellation poll (used at stage
// boundaries) and returns the exhaustion reason, "" while within budget.
func (t *Tracker) Check() string {
	if t == nil {
		return ""
	}
	if t.reason.Load() == nil {
		t.checkSignals()
	}
	return t.Exhausted()
}

// Exhausted returns the recorded exhaustion reason without polling.
func (t *Tracker) Exhausted() string {
	if t == nil {
		return ""
	}
	if r := t.reason.Load(); r != nil {
		return *r
	}
	return ""
}

// Done reports whether the budget is exhausted.
func (t *Tracker) Done() bool { return t != nil && t.reason.Load() != nil }

// Spent reports the resources consumed so far — the per-question "budget
// spent" numbers the observability layer records on trace spans. All
// zeros on the nil (unlimited) tracker.
func (t *Tracker) Spent() (steps, candidates, rows int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.steps.Load(), t.cands.Load(), t.rows.Load()
}

func (t *Tracker) checkSignals() bool {
	if t.hasDeadline && !time.Now().Before(t.deadline) {
		t.fail(&reasonDeadline)
		return false
	}
	if t.done != nil {
		select {
		case <-t.done:
			if t.ctx.Err() == context.DeadlineExceeded {
				t.fail(&reasonDeadline)
			} else {
				t.fail(&reasonCanceled)
			}
			return false
		default:
		}
	}
	return true
}
