package core_test

import (
	"fmt"
	"slices"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/nlp"
)

// differ describes how Algorithm 2 over word IDs and the reference differ
// on y — phrase pointers, roots and node lists compared with ==, and their
// order — or reports false.
func differ(y *nlp.DepTree, d *dict.Dictionary) (string, bool) {
	got, want := core.Embeddings(y, d), core.ReferenceEmbeddings(y, d)
	if slices.EqualFunc(got, want, func(a, b core.Embedding) bool {
		return a.Phrase == b.Phrase && a.Root == b.Root && slices.Equal(a.Nodes, b.Nodes)
	}) {
		return "", false
	}
	render := func(es []core.Embedding) string {
		s := ""
		for _, e := range es {
			s += fmt.Sprintf(" {%q %p root %d %v}", e.Phrase.Text, e.Phrase, e.Root, e.Nodes)
		}
		return s
	}
	return fmt.Sprintf("\n got %s\n want%s", render(got), render(want)), true
}

type questionSet struct {
	name      string
	d         *dict.Dictionary
	questions []bench.Question
}

// questionSets are the workloads TestWorkloadIdentity answers, each with
// its own dictionary.
func questionSets(t *testing.T) []questionSet {
	t.Helper()
	qald, _, err := bench.BuildDictionary(bench.MustKB())
	if err != nil {
		t.Fatal(err)
	}
	yagoKB, err := bench.BuildYagoKB()
	if err != nil {
		t.Fatal(err)
	}
	yago, err := bench.BuildYagoDictionary(yagoKB)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.NewNLScaleKB(100, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cinema := bench.NewCinemaKB()
	return []questionSet{
		{"qald", qald, bench.Workload()},
		{"yago", yago, bench.YagoWorkload()},
		{"nlscale", nl.Dict, nl.Questions},
		{"cinema", cinema.Dict, cinema.Questions},
	}
}

// TestEmbeddingsMatchReferenceOnWorkloads: on every question of the four
// workloads, Algorithm 2 over word IDs returns the reference's candidates
// in the reference's order.
func TestEmbeddingsMatchReferenceOnWorkloads(t *testing.T) {
	for _, set := range questionSets(t) {
		found := 0
		for _, q := range set.questions {
			y, err := nlp.Parse(q.Text)
			if err != nil {
				t.Fatalf("%s: %q: %v", set.name, q.Text, err)
			}
			if d, bad := differ(y, set.d); bad {
				t.Errorf("%s: %q:%s", set.name, q.Text, d)
			}
			found += len(core.Embeddings(y, set.d))
		}
		if found == 0 {
			t.Errorf("%s: no question has an embedding", set.name)
		}
		t.Logf("%s: %d questions, %d embeddings", set.name, len(set.questions), found)
	}
}

// FuzzFindEmbeddings: on any question the parser accepts, Algorithm 2 over
// word IDs agrees with the reference over the mini-DBpedia's dictionary.
func FuzzFindEmbeddings(f *testing.F) {
	d, _, err := bench.BuildDictionary(bench.MustKB())
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range bench.Workload() {
		f.Add(q.Text)
	}
	f.Fuzz(func(t *testing.T, q string) {
		y, err := nlp.Parse(q)
		if err != nil {
			return
		}
		if diff, bad := differ(y, d); bad {
			t.Fatalf("%q:%s", q, diff)
		}
	})
}
