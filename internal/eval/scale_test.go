package eval

import (
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
)

// TestNLScale runs the full natural-language pipeline against a synthetic
// 20 000-person knowledge base (~100 k triples): the curated KB shows
// correctness, this shows the engine holds up at four orders of magnitude
// more candidates than the running example.
func TestNLScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	kb, err := bench.NewNLScaleKB(20000, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	st := kb.Graph.Stats()
	t.Logf("scale KB: %d entities, %d triples", st.Entities, st.Triples)
	if st.Entities < 20000 {
		t.Fatalf("entities = %d", st.Entities)
	}

	sys := core.NewSystem(kb.Graph, kb.Dict, core.Options{TopK: 10})
	start := time.Now()
	results := RunOurs(sys, kb.Questions)
	elapsed := time.Since(start)
	sum := Summarize(results)
	t.Logf("scale run: %+v in %s (%.1fms/question)",
		sum, elapsed, float64(elapsed.Milliseconds())/float64(len(kb.Questions)))

	for _, r := range results {
		if r.Outcome != OutcomeRight {
			t.Errorf("%s %q: outcome %d (failure %v, %d answers)",
				r.Question.ID, r.Question.Text, r.Outcome, r.Failure, len(r.Answers))
		}
	}
	// Latency sanity: templated questions stay interactive (the paper's
	// Table 11 envelope is 250–2565 ms on 60 M triples).
	if perQ := elapsed / time.Duration(len(kb.Questions)); perQ > 500*time.Millisecond {
		t.Errorf("per-question latency %v too high", perQ)
	}
}

// TestCinemaGold: the cinema KB's questions — the cast of one director, and
// of two who share a name — are answered exactly by their generator's gold
// sets, so the identity row built on it compares right answers.
func TestCinemaGold(t *testing.T) {
	kb := bench.NewCinemaKB()
	sys := core.NewSystem(kb.Graph, kb.Dict, core.Options{TopK: 10})
	for _, r := range RunOurs(sys, kb.Questions) {
		if r.Outcome != OutcomeRight {
			t.Errorf("%s %q: outcome %d (failure %v, %d answers, %d gold)",
				r.Question.ID, r.Question.Text, r.Outcome, r.Failure, len(r.Answers), len(r.Question.Gold))
		}
	}
}
