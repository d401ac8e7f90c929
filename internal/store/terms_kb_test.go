package store_test

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/store"
)

// TestTermTableOnKBs holds the term table to the parent's dictionary on
// the workload KBs — qald's mini-DBpedia, yago, nl-scale's 20 000-person
// KB and the cinema KB: the same IDs, terms, lookups, vocabulary IDs and
// GQAFRZ1 terms section, before and after every term's other-kind
// variants are interned past a freeze.
func TestTermTableOnKBs(t *testing.T) {
	for _, kb := range []struct {
		name  string
		build func() (*store.Graph, error)
	}{
		{"qald", bench.BuildKB},
		{"yago", bench.BuildYagoKB},
		{"nlscale", func() (*store.Graph, error) {
			kb, err := bench.NewNLScaleKB(20000, 9, 3)
			if err != nil {
				return nil, err
			}
			return kb.Graph, nil
		}},
		{"cinema", func() (*store.Graph, error) { return bench.NewCinemaKB().Graph, nil }},
	} {
		t.Run(kb.name, func(t *testing.T) {
			g, err := kb.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.CheckTermTable(g.Terms()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTermTableBytes: the cinema test KB's term table, built by interning,
// holds its terms in at most ceiling bytes a term — the arena, the offset
// and tag columns and the index at their capacities, growth slack
// included. The dictionary it replaced (a []rdf.Term, a map keyed by
// Term.Key() and the keys) held about 130 live bytes a term on this KB
// besides the values' own strings.
func TestTermTableBytes(t *testing.T) {
	terms := bench.NewCinemaKB().Graph.Terms()
	perTerm := float64(store.InternTerms(terms)) / float64(len(terms))
	t.Logf("%d terms: %.1f bytes a term", len(terms), perTerm)
	const ceiling = 50 // measured: 47.1
	if perTerm > ceiling {
		t.Errorf("the term table holds %.1f bytes a term, at most %d", perTerm, ceiling)
	}
}

// TestLabelColumnOnKBs holds LabelOf to the parent's on every term of the
// workload KBs: never frozen, frozen at K = 1 and K = 4, loaded from
// GQAFRZ1, and after label writes since a freeze.
func TestLabelColumnOnKBs(t *testing.T) {
	for _, kb := range []struct {
		name  string
		build func() (*store.Graph, error)
	}{
		{"qald", bench.BuildKB},
		{"yago", bench.BuildYagoKB},
		{"nlscale", func() (*store.Graph, error) {
			kb, err := bench.NewNLScaleKB(20000, 9, 3)
			if err != nil {
				return nil, err
			}
			return kb.Graph, nil
		}},
		{"cinema", func() (*store.Graph, error) { return bench.NewCinemaKB().Graph, nil }},
	} {
		t.Run(kb.name, func(t *testing.T) {
			g, err := kb.build()
			if err != nil {
				t.Fatal(err)
			}
			labelled, err := store.CheckLabels(g)
			if err != nil {
				t.Fatal(err)
			}
			if labelled == 0 {
				t.Fatal("no term has an rdfs:label")
			}
			t.Logf("%d of %d terms labelled", labelled, g.NumTerms())
		})
	}
}
