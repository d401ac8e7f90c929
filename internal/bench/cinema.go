package bench

import (
	"fmt"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// The cinema generator: films × cast × directors under one-token made-up
// names, so linking is an index hit and a question's cost is the matcher's.
// It is the shape of benchmark/'s match-local workload at a size a test can
// run in every deployment shape — that generator is a package main in a
// module of its own — with one difference: the dictionary is written down,
// not mined. "play in" holds ⟨starring⟩ and, far below it, the three-hop
// co-star path ⟨starring⟩·⟨starring⟩⁻¹·⟨starring⟩ that mining picks up
// there as noise: the reading that gives "Which actors played in a film
// directed by D?" a second, much larger score class under its answers.

// CinemaKB is a generated cinema knowledge base with its dictionary and
// questions.
type CinemaKB struct {
	Graph     *store.Graph
	Dict      *dict.Dictionary
	Questions []Question
}

// cinemaName renders i as a three-syllable made-up word ending in "x"
// ("Dofazix"): one token, not an English word and never a plural, so the
// tagger reads it as a proper noun and the linker's lemma pass leaves it
// alone.
func cinemaName(i int) string {
	const consonants, vowels = "bdfgklmnprtvz", "aiou"
	b := make([]byte, 0, 7)
	for s := 0; s < 3; s++ {
		syl := i % (len(consonants) * len(vowels))
		i /= len(consonants) * len(vowels)
		b = append(b, consonants[syl/len(vowels)], vowels[syl%len(vowels)])
	}
	b[0] -= 'a' - 'A'
	return string(b) + "x"
}

// NewCinemaKB generates 240 films with a cast of twelve each — past k = 10,
// so the first film the search reaches fills the top k. Every actor plays
// in four films and every director makes three, all wired by arithmetic, so
// the graph is the same on every call; the two classes are large enough
// that the matcher anchors at the director alone. The last two directors
// share their name. The questions are the cast-of-director template asked
// of the first director and of that shared name, whose two readings tie.
func NewCinemaKB() *CinemaKB {
	const nFilms, castSize, filmsPerActor, filmsPerDirector = 240, 12, 4, 3
	g := store.New()
	typ, lbl := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSLabel)
	starring, directedBy := rdf.Ontology("starring"), rdf.Ontology("director")
	nActors, nDirectors := nFilms*castSize/filmsPerActor, nFilms/filmsPerDirector
	names := 0
	entities := func(class string, n int) ([]rdf.Term, []string) {
		c := rdf.Ontology(class)
		g.Add(rdf.T(c, lbl, rdf.NewLiteral(class)))
		terms, labels := make([]rdf.Term, n), make([]string, n)
		for i := range terms {
			terms[i] = rdf.Resource(fmt.Sprintf("e%04d", names)) // opaque: only the label links
			labels[i] = cinemaName(7*names + 3)
			names++
			g.Add(rdf.T(terms[i], typ, c))
		}
		return terms, labels
	}
	actors, actorNames := entities("actor", nActors)
	directors, directorNames := entities("director", nDirectors)
	films, filmNames := entities("film", nFilms)
	directorNames[nDirectors-1] = directorNames[nDirectors-2]
	for _, e := range []struct {
		terms  []rdf.Term
		labels []string
	}{{actors, actorNames}, {directors, directorNames}, {films, filmNames}} {
		for i, t := range e.terms {
			g.Add(rdf.T(t, lbl, rdf.NewLiteral(e.labels[i])))
		}
	}

	// Round r deals every actor once: film i takes three, at a stride coprime
	// to the number of actors (720), so two films seldom share more than one.
	cast := make([][]int, nFilms)
	for r, stride := range [filmsPerActor]int{1, 7, 11, 13} {
		for i := range films {
			for j := 0; j < castSize/filmsPerActor; j++ {
				a := ((i*castSize/filmsPerActor+j)*stride + r) % nActors
				dup := false
				for _, have := range cast[i] {
					dup = dup || have == a
				}
				if !dup {
					cast[i] = append(cast[i], a)
					g.Add(rdf.T(films[i], starring, actors[a]))
				}
			}
		}
	}
	filmsOf := make([][]int, nDirectors)
	for i := range films {
		d := i % nDirectors
		filmsOf[d] = append(filmsOf[d], i)
		g.Add(rdf.T(films[i], directedBy, directors[d]))
	}

	step := func(pred rdf.Term, forward bool) dict.Step {
		id, _ := g.Lookup(pred)
		return dict.Step{Pred: id, Forward: forward}
	}
	plays := []dict.Entry{
		{Path: dict.Path{step(starring, true)}, Score: 0.9},
		{Path: dict.Path{step(starring, true), step(starring, false), step(starring, true)}, Score: 0.07},
	}
	directs := []dict.Entry{{Path: dict.Path{step(directedBy, true)}, Score: 1}}
	d := dict.New()
	d.Add("play in", plays)
	d.Add("star in", plays)
	d.Add("be directed by", directs)
	d.Add("direct", directs)

	castOf := func(id string, ds ...int) Question {
		seen := make(map[int]bool)
		var gold []rdf.Term
		for _, di := range ds {
			for _, fi := range filmsOf[di] {
				for _, a := range cast[fi] {
					if !seen[a] {
						seen[a] = true
						gold = append(gold, actors[a])
					}
				}
			}
		}
		return Question{
			ID:       id,
			Text:     fmt.Sprintf("Which actors played in a film directed by %s?", directorNames[ds[0]]),
			Gold:     gold,
			Category: CatJoin,
		}
	}
	return &CinemaKB{Graph: g, Dict: d, Questions: []Question{
		castOf("C0", 0),
		castOf("C1", nDirectors-2, nDirectors-1),
	}}
}
