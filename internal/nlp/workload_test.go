package nlp_test

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/nlp"
)

// TestParseMatchesReferenceOnWorkloads: on every question of the qald,
// yago, nl-scale and cinema workloads, the tokenizer and the parser agree
// with the parent's, and no parent tree had a stale child.
func TestParseMatchesReferenceOnWorkloads(t *testing.T) {
	nl, err := bench.NewNLScaleKB(20000, 98, 1) // the nl-scale benchmark's questions
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name      string
		questions []bench.Question
	}{
		{"qald", bench.Workload()},
		{"yago", bench.YagoWorkload()},
		{"nlscale", nl.Questions},
		{"cinema", bench.NewCinemaKB().Questions},
	}
	for _, set := range sets {
		for _, q := range set.questions {
			if d, stale, bad := nlp.DiffParse(q.Text); bad || stale {
				t.Errorf("%s: %q: stale %v %s", set.name, q.Text, stale, d)
			}
		}
		t.Logf("%s: %d questions", set.name, len(set.questions))
	}
}
