package eval

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
)

// aggregationSystem builds a system with the future-work aggregation
// extension enabled and superlatives registered.
func aggregationSystem(t *testing.T) *core.System {
	t.Helper()
	g, err := bench.BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(g, d, core.Options{TopK: 10, EnableAggregation: true})
	bench.RegisterSuperlatives(sys, g)
	return sys
}

func TestAggregationCounting(t *testing.T) {
	sys := aggregationSystem(t)
	res, err := sys.Answer("How many films did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggregated || res.Count == nil || *res.Count != 3 {
		t.Fatalf("count = %+v (failure %v)", res.Count, res.Failure)
	}
	res, err = sys.Answer("How many children did Margaret Thatcher have?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == nil || *res.Count != 2 {
		t.Fatalf("count = %+v (failure %v)", res.Count, res.Failure)
	}
}

func TestAggregationSuperlative(t *testing.T) {
	sys := aggregationSystem(t)
	res, err := sys.Answer("Who is the youngest player in the Premier League?")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggregated || len(res.Answers) != 1 {
		t.Fatalf("result = %+v (failure %v)", res.Answers, res.Failure)
	}
	if got := sys.Graph.LabelOf(res.Answers[0]); got != "Theo Walcott" {
		t.Fatalf("youngest = %q", got)
	}
}

func TestAggregationStillFailsUnregistered(t *testing.T) {
	sys := aggregationSystem(t)
	// "oldest company in Munich": the base question answers companies, but
	// "oldest" ranks by ⟨age⟩ and no company has one, so the ranking keeps
	// nothing and the aggregation failure is reported.
	res, err := sys.Answer("Which is the oldest company in Munich?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != core.FailureAggregation {
		t.Fatalf("failure = %v answers %v", res.Failure, res.Answers)
	}
	// Unregistered superlative ("longest") also still fails.
	res, err = sys.Answer("What is the longest river in Germany?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != core.FailureAggregation {
		t.Fatalf("failure = %v", res.Failure)
	}
}

func TestAggregationDisabledByDefault(t *testing.T) {
	ours, _, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ours.Answer("How many films did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != core.FailureAggregation || res.Count != nil {
		t.Fatalf("default system should fail aggregation: %+v", res)
	}
}

// TestAggregationExtensionImprovesWorkload pins gqa-bench's aggext row:
// with the extension off 78 questions are right and 8 fail as aggregation
// (Table 10's bucket); on, the operator answers four of them, 82 and 4 —
// the quantified value of the future-work feature.
func TestAggregationExtensionImprovesWorkload(t *testing.T) {
	base, _, _, err := BuildSystems()
	if err != nil {
		t.Fatal(err)
	}
	qs := bench.Workload()
	for _, c := range []struct {
		name             string
		sys              *core.System
		right, aggFailed int
	}{
		{"off", base, 78, 8},
		{"on", aggregationSystem(t), 82, 4},
	} {
		outs := RunOurs(c.sys, qs)
		right, aggFailed := Summarize(outs).Right, FailureBreakdown(outs)[core.FailureAggregation]
		if right != c.right || aggFailed != c.aggFailed {
			t.Errorf("extension %s: %d right, %d aggregation failures; want %d and %d",
				c.name, right, aggFailed, c.right, c.aggFailed)
		}
	}
}
