package eval

import (
	"reflect"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
)

func TestWorkloadEndToEnd(t *testing.T) {
	ours, _, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	results := RunOurs(ours, bench.Workload())
	sum := Summarize(results)
	t.Logf("ours: %+v", sum)
	for _, r := range results {
		if r.Question.Answerable() && r.Outcome != OutcomeRight {
			t.Logf("MISS %-4s [%s] %-60q outcome=%d failure=%s answers=%v",
				r.Question.ID, r.Question.Category, r.Question.Text, r.Outcome, r.Failure, r.Answers)
		}
		if !r.Question.Answerable() && r.Outcome != OutcomeAbstained {
			t.Logf("LEAK %-4s [%s] %-60q outcome=%d answers=%v",
				r.Question.ID, r.Question.Category, r.Question.Text, r.Outcome, r.Answers)
		}
	}
	// Reproduction target: every structurally-answerable question is
	// answered exactly right; the failure strata (aggregation,
	// linking-hard, …) fail as designed.
	if sum.Right != 78 {
		t.Errorf("Right = %d, want 78", sum.Right)
	}
	if sum.Partial != 0 {
		t.Errorf("Partial = %d, want 0", sum.Partial)
	}
	if sum.F1 < 0.85 || sum.F1 >= 1.0 {
		t.Errorf("F1 = %.3f, want in [0.85, 1.0) — gold-bearing failure strata must cost recall", sum.F1)
	}
}

// TestWorkloadDeanna pins the other half of Table 8: the baseline's row
// (EXPERIMENTS.md: processed 80, right 70) and the paper's claim, that the
// graph data driven approach answers more questions right than DEANNA.
func TestWorkloadDeanna(t *testing.T) {
	ours, base, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	qs := bench.Workload()
	sum := Summarize(RunDeanna(base, qs))
	t.Logf("deanna: %+v", sum)
	if sum.Processed != 80 || sum.Right != 70 {
		t.Errorf("DEANNA processed %d, right %d; want 80, 70", sum.Processed, sum.Right)
	}
	if got := Summarize(RunOurs(ours, qs)).Right; got <= sum.Right {
		t.Errorf("ours right = %d, want more than DEANNA's %d", got, sum.Right)
	}
}

// TestFailureBreakdownShape pins the whole Table 10 mix: a question that
// moves between buckets changed why it fails, even when Right holds.
func TestFailureBreakdownShape(t *testing.T) {
	ours, _, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	got := FailureBreakdown(RunOurs(ours, bench.Workload()))
	want := map[core.FailureKind]int{
		core.FailureAggregation:        8,
		core.FailureEntityLinking:      6,
		core.FailureRelationExtraction: 6,
		core.FailureNoMatch:            1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failure breakdown = %v, want %v", got, want)
	}
}
