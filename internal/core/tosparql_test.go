package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/sparql"
	"gqa/internal/store"
)

func TestResolvedSPARQLRunningExample(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}
	q, err := ResolvedSPARQL(s.Graph, res.Query, &res.Matches[0])
	if err != nil {
		t.Fatal(err)
	}
	rendered := q.String()
	t.Logf("resolved SPARQL: %s", rendered)
	// The resolved query mentions the disambiguated entities/predicates.
	for _, want := range []string{"spouse", "starring", "answer"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered query missing %q: %s", want, rendered)
		}
	}
	// Evaluating it reproduces the match's answer binding.
	out, err := sparql.Eval(s.Graph, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range out.Rows {
		if id, ok := s.Graph.Lookup(row["answer"]); ok && id == ids["Melanie_Griffith"] {
			found = true
		}
	}
	if !found {
		t.Fatalf("evaluated rows %v lack Melanie_Griffith", out.Rows)
	}
	// And it reparses (valid SPARQL text).
	if _, err := sparql.Parse(rendered); err != nil {
		t.Fatalf("rendered query does not reparse: %v", err)
	}
}

func TestResolvedSPARQLPathEdge(t *testing.T) {
	gg := store.New()
	r := func(n string) store.ID { return gg.Intern(rdf.Resource(n)) }
	hasChild := gg.Intern(rdf.Ontology("hasChild"))
	gp, uncle, parent, nephew := r("Gp"), r("Uncle"), r("Parent"), r("Nephew")
	_ = uncle
	gg.AddSPO(gp, hasChild, uncle)
	gg.AddSPO(gp, hasChild, parent)
	gg.AddSPO(parent, hasChild, nephew)
	unclePath := dict.Path{
		{Pred: hasChild, Forward: false},
		{Pred: hasChild, Forward: true},
		{Pred: hasChild, Forward: true},
	}
	phrase := dict.New().Add("uncle of", []dict.Entry{{Path: unclePath, Score: 1}})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "who", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "Nephew"}, Candidates: []VertexCandidate{{ID: nephew, Score: 1}}},
		},
		Edges: []Edge{{From: 0, To: 1, Phrase: phrase,
			Candidates: []EdgeCandidate{{Path: unclePath, Score: 1}}}},
	}
	matches, _ := FindTopKMatches(gg, q, MatchOptions{TopK: 5})
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	sq, err := ResolvedSPARQL(gg, q, &matches[0])
	if err != nil {
		t.Fatal(err)
	}
	// The length-3 path expands to three patterns over two intermediates.
	if len(sq.Patterns) != 3 {
		t.Fatalf("patterns = %v", sq.Patterns)
	}
	out, err := sparql.Eval(gg, sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0]["answer"].LocalName() != "Uncle" {
		t.Fatalf("rows = %v", out.Rows)
	}
}

// TestQuickResolvedSPARQLReproducesMatch: for random query setups, every
// top match's resolved SPARQL evaluates to a row set containing that
// match's select binding — or, when an unconstrained vertex has no edge,
// there is no rendering at all.
func TestQuickResolvedSPARQLReproducesMatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 3})
		sel := q.SelectVertex()
		if sel < 0 {
			return true
		}
		for _, m := range matches {
			sq, err := ResolvedSPARQL(g, q, &m)
			if (err != nil) != (loneWh(q) >= 0) {
				t.Logf("seed %d: rendered %v, error %v (query %s)", seed, sq, err, q)
				return false
			}
			if err != nil {
				continue
			}
			out, err := sparql.Eval(g, sq)
			if err != nil {
				t.Logf("seed %d: eval: %v (query %s)", seed, err, sq)
				return false
			}
			found := false
			for _, row := range out.Rows {
				if id, ok := g.Lookup(row["answer"]); ok && id == m.Assignment[sel] {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: SPARQL %s does not reproduce binding %v",
					seed, sq, g.Term(m.Assignment[sel]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestResolvedSPARQLOrientationWidth: a match keeps the orientation of 64
// edges. A chain of 64 whose last link runs against the others renders, bit
// 63 included, to SPARQL that finds the far end; one edge more and there is
// no rendering (the facade then leaves Answer.SPARQL empty), not a wrong one.
func TestResolvedSPARQLOrientationWidth(t *testing.T) {
	for _, nEdges := range []int{64, 65} {
		g := store.New()
		next := g.Intern(rdf.Ontology("next"))
		verts := make([]store.ID, nEdges+1)
		for i := range verts {
			verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("n%02d", i)))
		}
		for i := 0; i < nEdges-1; i++ {
			g.AddSPO(verts[i], next, verts[i+1])
		}
		g.AddSPO(verts[nEdges], next, verts[nEdges-1]) // the last link points back
		path := dict.Path{{Pred: next, Forward: true}}
		phrase := dict.New().Add("next to", []dict.Entry{{Path: path, Score: 1}})
		q := &QueryGraph{Vertices: []Vertex{{Arg: Argument{Text: "n00"}, Candidates: []VertexCandidate{{ID: verts[0], Score: 1}}}}}
		for i := 1; i <= nEdges; i++ {
			q.Vertices = append(q.Vertices, Vertex{Arg: Argument{Text: "what", Wh: true}, Unconstrained: true, Select: i == nEdges})
			q.Edges = append(q.Edges, Edge{From: i - 1, To: i, Phrase: phrase, Candidates: []EdgeCandidate{{Path: path, Score: 1}}})
		}
		matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 5})
		if len(matches) != 1 {
			t.Fatalf("%d edges: %d matches, want the chain", nEdges, len(matches))
		}
		sq, err := ResolvedSPARQL(g, q, &matches[0])
		if nEdges > 64 {
			if err == nil {
				t.Errorf("%d edges rendered; orientation is kept for 64", nEdges)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if matches[0].EdgeRev != 1<<63 {
			t.Errorf("EdgeRev = %b, want only the last edge reversed", matches[0].EdgeRev)
		}
		out, err := sparql.Eval(g, sq)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != 1 || out.Rows[0]["answer"] != g.Term(verts[nEdges]) {
			t.Fatalf("rows = %v, want the chain's far end", out.Rows)
		}
	}
}
