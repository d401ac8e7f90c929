package deanna_test

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/deanna"
)

// TestFig6Direction pins the direction of the paper's Fig. 6 with counts,
// not wall time: on "Did Antonio Banderas play in Philadelphia?" over
// bench.AmbiguousKB(m), m distractors for each of the two mentions,
// DEANNA's coherence evaluations grow at least as m² — its disambiguation
// graph pairs every candidate of one mention with every candidate of the
// other — while the data-driven search stays anchored in the graph: its
// rounds, seeds and steps are the same at every m.
func TestFig6Direction(t *testing.T) {
	const question = "Did Antonio Banderas play in Philadelphia?"
	var first core.MatchStats
	prevEvals := -1
	for i, m := range []int{0, 10, 25, 50} {
		g, err := bench.AmbiguousKB(m)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := bench.BuildDictionary(g)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := core.NewSystem(g, d, core.Options{TopK: 10, MaxVertexCandidates: m + 10}).Answer(question)
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := deanna.NewSystem(g, d, deanna.Options{MaxEntityCandidates: m + 10}).Answer(question)
		if err != nil {
			t.Fatal(err)
		}
		if ours.Boolean == nil || !*ours.Boolean || theirs.Boolean == nil || !*theirs.Boolean {
			t.Fatalf("m=%d: ours %v, DEANNA %v; both must answer true", m, ours.Boolean, theirs.Boolean)
		}
		s := ours.Stats
		t.Logf("m=%d: ours %d rounds, %d seeds, %d steps (%d candidates kept, %d cut); DEANNA %d coherence evaluations",
			m, s.Rounds, s.Seeds, s.Steps, s.CandidatesKept, s.CandidatesCut, theirs.CoherenceEvals)
		if i == 0 {
			first = s
		} else if s.Rounds != first.Rounds || s.Seeds != first.Seeds || s.Steps != first.Steps {
			t.Errorf("m=%d: our search ran %d rounds, %d seeds, %d steps; at m=0 it ran %d, %d, %d",
				m, s.Rounds, s.Seeds, s.Steps, first.Rounds, first.Seeds, first.Steps)
		}
		if theirs.CoherenceEvals <= prevEvals || theirs.CoherenceEvals < m*m {
			t.Errorf("m=%d: DEANNA made %d coherence evaluations, want more than the previous m's %d and at least m² = %d",
				m, theirs.CoherenceEvals, prevEvals, m*m)
		}
		prevEvals = theirs.CoherenceEvals
	}
}
