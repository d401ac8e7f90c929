package bench

import (
	"fmt"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// AmbiguousKB returns the mini-DBpedia augmented with m distractor
// entities that all carry the label "Philadelphia" and participate in
// plausible playForTeam subgraphs, and m more labeled "Antonio Banderas".
// It recreates, at a controllable density, the ambiguity DBpedia exhibits
// for the paper's running example: the mention "Philadelphia" then has 3+m
// candidates and "Antonio Banderas" 1+m. DEANNA weighs every pair of them.
// Neighborhood pruning does not keep them all: "play in" maps to starring
// paths, so of the Philadelphias only Philadelphia_(film) passes, while
// the m Banderas clones, each starring in a film, all pass (at m = 10, 12
// candidates are kept and 12 cut).
//
// The correct answer is unaffected: no distractor is starred in by an
// actor married to anyone, so the top match still binds the film.
func AmbiguousKB(m int) (*store.Graph, error) {
	g, err := BuildKB()
	if err != nil {
		return nil, err
	}
	typ := rdf.NewIRI(rdf.RDFType)
	lbl := rdf.NewIRI(rdf.RDFSLabel)
	playForTeam := rdf.Ontology("playForTeam")
	for i := 0; i < m; i++ {
		team := rdf.Resource(fmt.Sprintf("Philadelphia_Distractor_%03d", i))
		player := rdf.Resource(fmt.Sprintf("Distractor_Player_%03d", i))
		coach := rdf.Resource(fmt.Sprintf("Distractor_Coach_%03d", i))
		triples := []rdf.Triple{
			rdf.T(team, typ, rdf.Ontology("BasketballTeam")),
			rdf.T(team, lbl, rdf.NewLiteral("Philadelphia")),
			rdf.T(player, playForTeam, team),
			rdf.T(player, typ, rdf.Ontology("Person")),
			rdf.T(coach, playForTeam, team),
			rdf.T(coach, typ, rdf.Ontology("Person")),
			// Shared hub edges give the distractors overlapping neighbor
			// sets, so pairwise coherence computations are non-trivial.
			rdf.T(team, rdf.Ontology("locationCity"), rdf.Resource("Philadelphia")),
		}
		if err := g.AddAll(triples); err != nil {
			return nil, err
		}
		// A second ambiguous mention: m distractor persons also labeled
		// "Antonio Banderas", each starring in a distractor film. With two
		// ambiguous mentions in one question, DEANNA's disambiguation
		// graph has Θ(m²) coherence pairs.
		clone := rdf.Resource(fmt.Sprintf("Antonio_Banderas_Distractor_%03d", i))
		film := rdf.Resource(fmt.Sprintf("Distractor_Film_%03d", i))
		triples = []rdf.Triple{
			rdf.T(clone, lbl, rdf.NewLiteral("Antonio Banderas")),
			rdf.T(clone, typ, rdf.Ontology("Person")),
			rdf.T(film, rdf.Ontology("starring"), clone),
			rdf.T(film, typ, rdf.Ontology("Film")),
		}
		if err := g.AddAll(triples); err != nil {
			return nil, err
		}
	}
	return g, nil
}
