package eval

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
)

// TestYagoWorkload restores the experiment the paper omits for space: the
// same pipeline over a YAGO2-flavored repository. Nothing in the engine is
// DBpedia-specific; every question must resolve.
func TestYagoWorkload(t *testing.T) {
	g, err := bench.BuildYagoKB()
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildYagoDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(g, d, core.Options{TopK: 10})
	results := RunOurs(sys, bench.YagoWorkload())
	sum := Summarize(results)
	t.Logf("yago2: %+v", sum)
	for _, r := range results {
		if r.Outcome != OutcomeRight {
			t.Errorf("%s %q: outcome %d (answers %v, failure %v)",
				r.Question.ID, r.Question.Text, r.Outcome, r.Answers, r.Failure)
		}
	}
}
