// Movies: the paper's running example on a film knowledge graph you build
// yourself, showing graph data-driven disambiguation in action — the
// mention "Philadelphia" stays ambiguous until subgraph matching decides.
//
//	go run ./examples/movies
package main

import (
	"fmt"
	"log"
	"strings"

	"gqa"
	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

func main() {
	// Build the RDF graph of the paper's Figure 1(a) programmatically.
	g := store.New()
	r, o := rdf.Resource, rdf.Ontology
	typ := rdf.NewIRI(rdf.RDFType)
	triples := []rdf.Triple{
		rdf.T(r("Antonio_Banderas"), typ, o("Actor")),
		rdf.T(r("Melanie_Griffith"), o("spouse"), r("Antonio_Banderas")),
		rdf.T(r("Philadelphia_(film)"), o("starring"), r("Antonio_Banderas")),
		rdf.T(r("Philadelphia_(film)"), typ, o("Film")),
		rdf.T(r("Philadelphia_(film)"), o("director"), r("Jonathan_Demme")),
		rdf.T(r("Aaron_McKie"), o("playForTeam"), r("Philadelphia_76ers")),
		rdf.T(r("Philadelphia"), o("country"), r("United_States")),
		rdf.T(o("Actor"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("actor")),
	}
	if err := g.AddAll(triples); err != nil {
		log.Fatal(err)
	}

	// The offline stage: mine the paraphrase dictionary from support sets
	// (here: the actual triples, standing in for Patty's extractions).
	sys := gqa.NewSystem(g, nil, gqa.Options{})
	pairsOf := func(pred string) [][2]store.ID {
		pid, _ := g.Lookup(o(pred))
		var out [][2]store.ID
		g.Match(store.Any, pid, store.Any, func(t store.Spo) bool {
			out = append(out, [2]store.ID{t.S, t.O})
			return true
		})
		return out
	}
	sys.MineDictionary([]dict.SupportSet{
		{Phrase: "be married to", Pairs: pairsOf("spouse")},
		{Phrase: "play in", Pairs: append(pairsOf("starring"), pairsOf("playForTeam")...)},
		{Phrase: "star in", Pairs: pairsOf("starring")},
		{Phrase: "be directed by", Pairs: pairsOf("director")},
	}, 4, 3)

	// The headline question. "Philadelphia" could be the film, the city,
	// or the 76ers; "played in" could be starring or playForTeam. No
	// disambiguation happens until matching.
	q := "Who was married to an actor that played in Philadelphia?"
	ans, matches, err := sys.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q:", q)
	fmt.Println("semantic query graph:", ans.QueryGraph())
	fmt.Println("A:", strings.Join(ans.Labels, "; "))
	fmt.Println("matches (the disambiguation, resolved by the data):")
	for _, m := range matches {
		fmt.Println("  ", m)
	}
}
