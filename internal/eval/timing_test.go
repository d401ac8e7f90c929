package eval

import (
	"context"
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/obs"
)

// TestStagesTileTheQuestion: each stage boundary is read once, so a
// question's stages tile it. On qald's 99 questions and qald-agg, traced
// and untraced, Parse + Understanding + Evaluation is Timing.Total to the
// nanosecond unless an aggregation operator ran (its time is in Total,
// outside every stage); on a traced run the nlp.parse, core.understand and
// core.match spans are those same intervals, each opened at most once.
// DEANNA's results over the 99 questions tile the same way.
func TestStagesTileTheQuestion(t *testing.T) {
	qs := bench.Workload()
	for _, kb := range []workloadKB{qaldKB, qaldAggKB} {
		g, d := kb.mustBuild(t)
		sys := kb.extend(core.NewSystem(g, d, core.Options{TopK: 10}))
		for _, traced := range []bool{false, true} {
			for _, q := range qs {
				ctx, tr := context.Background(), (*obs.Trace)(nil)
				if traced {
					tr = obs.NewTrace("answer", q.Text)
					ctx = obs.WithTrace(ctx, tr)
				}
				res, err := sys.AnswerContext(ctx, q.Text)
				if err != nil {
					t.Fatalf("%s %s: %v", kb.name, q.ID, err)
				}
				tm := res.Timing
				sum := tm.Parse + tm.Understanding + tm.Evaluation
				operator := res.Aggregated || res.Failure == core.FailureAggregation
				if tm.Parse <= 0 || sum > tm.Total || !operator && sum != tm.Total {
					t.Errorf("%s %s (traced %v): %+v; stages sum to %v", kb.name, q.ID, traced, tm, sum)
				}
				if !traced {
					continue
				}
				tr.Finish()
				got := map[string]time.Duration{}
				for _, st := range tr.Stages() {
					got[st.Name] = st.Dur
				}
				want := map[string]time.Duration{
					"nlp.parse":       tm.Parse,
					"core.understand": tm.Understanding,
					"core.match":      tm.Evaluation,
				}
				for name, d := range want {
					if got[name] != d {
						t.Errorf("%s %s: span %s = %v, Timing says %v", kb.name, q.ID, name, got[name], d)
					}
				}
				if n := len(tr.FindAttrs("nlp.parse", "tokens")); n != 1 {
					t.Errorf("%s %s: %d nlp.parse spans, want 1", kb.name, q.ID, n)
				}
			}
		}
	}

	_, base, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		res, err := base.Answer(q.Text)
		if err != nil {
			t.Fatalf("deanna %s: %v", q.ID, err)
		}
		tm := res.Timing
		if sum := tm.Parse + tm.Understanding + tm.Evaluation; tm.Parse <= 0 || sum != tm.Total {
			t.Errorf("deanna %s: %+v; stages sum to %v", q.ID, tm, sum)
		}
	}
}
