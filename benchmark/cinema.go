package main

import (
	"fmt"
	"math/rand"
	"sort"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// The cinema generator: films × cast × spouses × directors. Every label is
// one unique made-up token and every IRI is opaque, so entity linking is a
// single-token index hit and nearly all of a question's time goes to the
// matcher walking the graph — the opposite of the nl-scale generator,
// whose shared name tokens make linking the cost centre. Gold answers are
// exact because no two entities share a label token.

// Question templates. All three are anchored at the one named entity; the
// first two also carry class-constrained vertices ("an actor", "actors",
// "a film") and walk two relations from the anchor, the third is a one-hop
// lookup.
const (
	tmplSpouse   = "spouse-of-cast"   // Who was married to an actor that played in F?
	tmplCastOf   = "cast-of-director" // Which actors played in a film directed by D?
	tmplDirector = "director-of"      // Who directed F?
)

// phrasePred names the predicate whose (s, o) pairs support a relation
// phrase when mining the paraphrase dictionary.
type phrasePred struct {
	phrase string
	pred   rdf.Term
}

var (
	cinemaStarring = rdf.Ontology("starring")
	cinemaDirector = rdf.Ontology("director")
	cinemaSpouse   = rdf.Ontology("spouse")

	cinemaPhrases = []phrasePred{
		{"be married to", cinemaSpouse},
		{"be the husband of", cinemaSpouse},
		{"play in", cinemaStarring},
		{"star in", cinemaStarring},
		{"be directed by", cinemaDirector},
		{"direct", cinemaDirector},
	}

	// nlScalePhrases mirrors the phrase table inside bench.NewNLScaleKB; it
	// is used only to time an equivalent mining job for dict.mine_ms, since
	// that generator mines inside one call with graph generation.
	nlScalePhrases = []phrasePred{
		{"be married to", rdf.Ontology("spouse")},
		{"be the husband of", rdf.Ontology("spouse")},
		{"work for", rdf.Ontology("employer")},
		{"be employed by", rdf.Ontology("employer")},
		{"live in", rdf.Ontology("residence")},
		{"live", rdf.Ontology("residence")},
		{"reside in", rdf.Ontology("residence")},
	}
)

// mineSampled mines a paraphrase dictionary the way bench.NewNLScaleKB
// does: up to 40 sampled support pairs per phrase, path length ≤ 3, top 3
// paths (mining over every pair would dominate set-up without changing
// the result).
func mineSampled(g *store.Graph, rng *rand.Rand, phrases []phrasePred) *dict.Dictionary {
	const perPhrase = 40
	sets := make([]dict.SupportSet, 0, len(phrases))
	for _, pp := range phrases {
		pid, _ := g.Lookup(pp.pred)
		var pairs [][2]store.ID
		g.Match(store.Any, pid, store.Any, func(t store.Spo) bool {
			pairs = append(pairs, [2]store.ID{t.S, t.O})
			return len(pairs) < perPhrase*8
		})
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		if len(pairs) > perPhrase {
			pairs = pairs[:perPhrase]
		}
		sets = append(sets, dict.SupportSet{Phrase: pp.phrase, Pairs: pairs})
	}
	d, _ := dict.Mine(g, sets, dict.MineOptions{MaxPathLen: 3, TopK: 3})
	return d
}

// cinemaWiring seeds who plays in what, who directed what, and which
// support pairs the dictionary is mined from — the same on every run. The
// run's seed picks the names and the questions only. Wiring the graph from
// the run's seed would let the seed decide what the workload costs: a
// three-hop path between a film and one of its actors (through a co-star's
// other film) exists for about one support pair in forty, so whether the
// sample of forty holds one — and with it whether "play in" gets two more
// path candidates and the search several times the work — is a coin toss
// per seed. This wiring's sample holds one.
const cinemaWiring = 7

var (
	nameConsonants = []byte("bdfgklmnprtvz")
	nameVowels     = []byte("aiou")
)

// uniqueName renders i as a three-syllable made-up word ending in "x"
// ("Dofazix"): one token, not an English word, and never a plural, so the
// tagger reads it as a proper noun and the linker's lemma pass leaves it
// alone.
func uniqueName(i int) string {
	n := len(nameConsonants) * len(nameVowels)
	b := make([]byte, 0, 7)
	for s := 0; s < 3; s++ {
		syl := i % n
		i /= n
		b = append(b, nameConsonants[syl/len(nameVowels)], nameVowels[syl%len(nameVowels)])
	}
	b[0] -= 'a' - 'A'
	return string(b) + "x"
}

// cinemaQuestion is one generated question with its gold answer set.
type cinemaQuestion struct {
	text string
	gold []rdf.Term
}

// cinemaKB is the generated graph, its mined dictionary, and the question
// pool per template.
type cinemaKB struct {
	graph  *store.Graph
	dict   *dict.Dictionary
	pool   map[string][]cinemaQuestion
	mineMs float64
}

// newCinemaKB generates nFilms films with castSize actors each (castSize a
// multiple of four), one spouse per second actor, and one director per
// eight films, then mines the dictionary and derives up to perTemplate
// questions of each template with gold answers.
func newCinemaKB(nFilms, castSize, perTemplate int, seed int64) *cinemaKB {
	rng := rand.New(rand.NewSource(seed))
	wire := rand.New(rand.NewSource(cinemaWiring))
	g := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	lbl := rdf.NewIRI(rdf.RDFSLabel)
	film, actor, person, director := rdf.Ontology("Film"), rdf.Ontology("Actor"), rdf.Ontology("Person"), rdf.Ontology("Director")

	// Every actor plays in exactly filmsPerActor films and every director
	// makes exactly filmsPerDirector, so questions of one template cost
	// about the same and the class-anchored template stays clear of the
	// matcher's 10000-match safety cap (whose cutoff is order-sensitive
	// and would make the gold inexact).
	const filmsPerActor, filmsPerDirector = 4, 8
	perRound := castSize / filmsPerActor
	nActors := nFilms * perRound
	nDirectors := (nFilms + filmsPerDirector - 1) / filmsPerDirector
	names := rng.Perm(nFilms + nActors + nActors/2 + nDirectors)
	next := 0
	entity := func(class rdf.Term) (rdf.Term, string) {
		t := rdf.Resource(fmt.Sprintf("e%06d", next))
		name := uniqueName(names[next])
		next++
		g.Add(rdf.T(t, typ, class))
		g.Add(rdf.T(t, lbl, rdf.NewLiteral(name)))
		return t, name
	}

	type named struct {
		term rdf.Term
		name string
	}
	actors := make([]named, nActors)
	spouseOf := make([]int, nActors) // index into spouses, -1 if single
	var spouses []rdf.Term
	for i := range actors {
		actors[i].term, actors[i].name = entity(actor)
		spouseOf[i] = -1
		if i%2 == 0 {
			s, _ := entity(person)
			spouseOf[i] = len(spouses)
			spouses = append(spouses, s)
			g.Add(rdf.T(actors[i].term, cinemaSpouse, s))
		}
	}
	directors := make([]named, nDirectors)
	filmsOf := make([][]int, nDirectors)
	for i := range directors {
		directors[i].term, directors[i].name = entity(director)
	}
	films := make([]named, nFilms)
	cast := make([][]int, nFilms)
	directedBy := make([]int, nFilms)
	for i, slot := range wire.Perm(nFilms) {
		films[i].term, films[i].name = entity(film)
		d := slot / filmsPerDirector
		directedBy[i] = d
		filmsOf[d] = append(filmsOf[d], i)
		g.Add(rdf.T(films[i].term, cinemaDirector, directors[d].term))
	}
	// One shuffled deal of all actors per round: film i takes perRound
	// actors from each, skipping the rare actor it already has.
	for r := 0; r < filmsPerActor; r++ {
		deal := wire.Perm(nActors)
		for i := range films {
			for _, a := range deal[i*perRound : (i+1)*perRound] {
				dup := false
				for _, have := range cast[i] {
					dup = dup || have == a
				}
				if !dup {
					cast[i] = append(cast[i], a)
					g.Add(rdf.T(films[i].term, cinemaStarring, actors[a].term))
				}
			}
		}
	}
	g.Add(rdf.T(film, lbl, rdf.NewLiteral("film")))
	g.Add(rdf.T(actor, lbl, rdf.NewLiteral("actor")))
	g.Add(rdf.T(person, lbl, rdf.NewLiteral("person")))
	g.Add(rdf.T(director, lbl, rdf.NewLiteral("director")))

	kb := &cinemaKB{graph: g, pool: make(map[string][]cinemaQuestion)}
	kb.mineMs = msSince(func() { kb.dict = mineSampled(g, wire, cinemaPhrases) })

	for _, fi := range rng.Perm(nFilms) {
		if len(kb.pool[tmplSpouse]) >= perTemplate {
			break
		}
		var gold []rdf.Term
		for _, a := range cast[fi] {
			if s := spouseOf[a]; s >= 0 {
				gold = append(gold, spouses[s])
			}
		}
		if len(gold) == 0 {
			continue
		}
		kb.pool[tmplSpouse] = append(kb.pool[tmplSpouse], cinemaQuestion{
			text: fmt.Sprintf("Who was married to an actor that played in %s?", films[fi].name),
			gold: gold,
		})
		kb.pool[tmplDirector] = append(kb.pool[tmplDirector], cinemaQuestion{
			text: fmt.Sprintf("Who directed %s?", films[fi].name),
			gold: []rdf.Term{directors[directedBy[fi]].term},
		})
	}
	for _, di := range rng.Perm(nDirectors) {
		if len(kb.pool[tmplCastOf]) >= perTemplate {
			break
		}
		seen := make(map[int]bool)
		var gold []rdf.Term
		for _, fi := range filmsOf[di] {
			for _, a := range cast[fi] {
				if !seen[a] {
					seen[a] = true
					gold = append(gold, actors[a].term)
				}
			}
		}
		if len(gold) == 0 {
			continue
		}
		kb.pool[tmplCastOf] = append(kb.pool[tmplCastOf], cinemaQuestion{
			text: fmt.Sprintf("Which actors played in a film directed by %s?", directors[di].name),
			gold: gold,
		})
	}
	return kb
}

// sortedTerms renders a term set in N-Triples syntax, sorted — the
// order-free form gold answers are compared in.
func sortedTerms(ts []rdf.Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}
