package bench

import (
	"fmt"
	"math/rand"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// The NL-scale generator: a synthetic knowledge base whose entities carry
// natural-language labels, so the *full* pipeline — parsing, linking,
// matching — can be exercised and timed at sizes the curated KB cannot
// reach. People are married, employed and domiciled; questions are
// templated over randomly chosen residents.

var firstNames = []string{
	"Ada", "Boris", "Clara", "Dmitri", "Elena", "Felix", "Greta", "Hugo",
	"Iris", "Jonas", "Karin", "Lars", "Mona", "Nils", "Olga", "Pavel",
	"Rosa", "Sven", "Tilda", "Ursula", "Viktor", "Wanda", "Xavier", "Yara",
}

var lastNames = []string{
	"Albrecht", "Bergman", "Castellan", "Dorfman", "Eriksen", "Falkner",
	"Grimaldi", "Hoffman", "Ivanova", "Jansen", "Kowalski", "Lindqvist",
	"Moreau", "Novak", "Olsen", "Petrov", "Quist", "Rossi", "Sandoval",
	"Tanaka", "Ullman", "Varga", "Weber", "Zorn",
}

// NLScaleKB is a generated large labeled knowledge base with a matching
// mined dictionary and a templated workload.
type NLScaleKB struct {
	Graph     *store.Graph
	Dict      *dict.Dictionary
	Questions []Question
}

// NewNLScaleKB generates nPeople labeled people (spouse pairs, employers,
// home cities), mines the paraphrase dictionary from sampled support sets,
// and derives nQuestions templated questions with gold answers.
func NewNLScaleKB(nPeople, nQuestions int, seed int64) (*NLScaleKB, error) {
	rng := rand.New(rand.NewSource(seed))
	g := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	lbl := rdf.NewIRI(rdf.RDFSLabel)

	person := rdf.Ontology("Person")
	city := rdf.Ontology("City")
	company := rdf.Ontology("Company")
	spouse := rdf.Ontology("spouse")
	worksAt := rdf.Ontology("employer")
	livesIn := rdf.Ontology("residence")

	nCities := nPeople/50 + 2
	nCompanies := nPeople/25 + 2
	cities := make([]rdf.Term, nCities)
	for i := range cities {
		cities[i] = rdf.Resource(fmt.Sprintf("City_%04d", i))
		g.Add(rdf.T(cities[i], typ, city))
		g.Add(rdf.T(cities[i], lbl, rdf.NewLiteral(fmt.Sprintf("Ciudad %04d", i))))
	}
	companies := make([]rdf.Term, nCompanies)
	for i := range companies {
		companies[i] = rdf.Resource(fmt.Sprintf("Company_%04d", i))
		g.Add(rdf.T(companies[i], typ, company))
		g.Add(rdf.T(companies[i], lbl, rdf.NewLiteral(fmt.Sprintf("Compagnie %04d", i))))
	}

	type resident struct {
		term   rdf.Term
		label  string
		spouse int // index of spouse, -1 if single
		city   int
	}
	people := make([]resident, nPeople)
	for i := range people {
		label := fmt.Sprintf("%s %s %d",
			firstNames[i%len(firstNames)],
			lastNames[(i/len(firstNames))%len(lastNames)],
			i)
		t := rdf.Resource(fmt.Sprintf("Person_%06d", i))
		people[i] = resident{term: t, label: label, spouse: -1, city: rng.Intn(nCities)}
		g.Add(rdf.T(t, typ, person))
		g.Add(rdf.T(t, lbl, rdf.NewLiteral(label)))
		g.Add(rdf.T(t, livesIn, cities[people[i].city]))
		g.Add(rdf.T(t, worksAt, companies[rng.Intn(nCompanies)]))
	}
	// Pair up even/odd neighbors as spouses.
	for i := 0; i+1 < nPeople; i += 2 {
		people[i].spouse = i + 1
		people[i+1].spouse = i
		g.Add(rdf.T(people[i].term, spouse, people[i+1].term))
	}
	g.Add(rdf.T(person, lbl, rdf.NewLiteral("person")))
	g.Add(rdf.T(city, lbl, rdf.NewLiteral("city")))
	g.Add(rdf.T(company, lbl, rdf.NewLiteral("company")))

	// Mine the dictionary from sampled support sets (mining over every
	// pair would dominate runtime without changing the result).
	sample := func(pred rdf.Term, max int) dict.SupportSet {
		pid, _ := g.Lookup(pred)
		var pairs [][2]store.ID
		g.Match(store.Any, pid, store.Any, func(t store.Spo) bool {
			pairs = append(pairs, [2]store.ID{t.S, t.O})
			return len(pairs) < max*8
		})
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		if len(pairs) > max {
			pairs = pairs[:max]
		}
		return dict.SupportSet{Pairs: pairs}
	}
	var sets []dict.SupportSet
	add := func(phrase string, pred rdf.Term) {
		s := sample(pred, 40)
		s.Phrase = phrase
		sets = append(sets, s)
	}
	add("be married to", spouse)
	add("be the husband of", spouse)
	add("work for", worksAt)
	add("be employed by", worksAt)
	add("live in", livesIn)
	add("live", livesIn)
	add("reside in", livesIn)
	d, _ := dict.Mine(g, sets, dict.MineOptions{MaxPathLen: 3, TopK: 3})

	// Templated questions over random residents.
	var qs []Question
	for len(qs) < nQuestions {
		i := rng.Intn(nPeople)
		p := people[i]
		switch len(qs) % 3 {
		case 0:
			if p.spouse < 0 {
				continue
			}
			qs = append(qs, Question{
				ID:       fmt.Sprintf("N%d", len(qs)),
				Text:     fmt.Sprintf("Who is married to %s?", p.label),
				Gold:     []rdf.Term{people[p.spouse].term},
				Category: CatSimple,
			})
		case 1:
			qs = append(qs, Question{
				ID:       fmt.Sprintf("N%d", len(qs)),
				Text:     fmt.Sprintf("Where does %s live?", p.label),
				Gold:     []rdf.Term{cities[p.city]},
				Category: CatSimple,
			})
		default:
			ci := rng.Intn(nCities)
			var gold []rdf.Term
			for _, r := range people {
				if r.city == ci {
					gold = append(gold, r.term)
				}
			}
			if len(gold) == 0 || len(gold) > 120 {
				continue
			}
			qs = append(qs, Question{
				ID:       fmt.Sprintf("N%d", len(qs)),
				Text:     fmt.Sprintf("Which people live in Ciudad %04d?", ci),
				Gold:     gold,
				Category: CatSimple,
			})
		}
	}
	return &NLScaleKB{Graph: g, Dict: d, Questions: qs}, nil
}
