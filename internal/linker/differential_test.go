package linker_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"gqa/internal/bench"
	"gqa/internal/linker"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// limits are the candidate caps every differential compares at: none, the
// two smallest cuts, and the one BuildQueryGraph links with.
var limits = []int{0, 1, 2, 10}

// differ returns the first limit at which the index and the reference
// return different candidates for mention — IDs, IsClass, Score compared
// with ==, and order — and a description of the difference.
func differ(lk *linker.Linker, ref *linker.Reference, mention string) (string, bool) {
	for _, limit := range limits {
		got, want := lk.Link(mention, limit), ref.Link(mention, limit)
		if !slices.Equal(got, want) {
			return fmt.Sprintf("Link(%q, %d)\n got  %v\n want %v", mention, limit, got, want), true
		}
	}
	return "", false
}

// ngrams returns every run of one to four whitespace-separated words of
// text, punctuation left on: the tokeniser is part of what is compared.
func ngrams(text string) []string {
	words := strings.Fields(text)
	var out []string
	for i := range words {
		for n := 1; n <= 4 && i+n <= len(words); n++ {
			out = append(out, strings.Join(words[i:i+n], " "))
		}
	}
	return out
}

// labels returns every term's label and every literal's lexical form.
func labels(g *store.Graph) []string {
	var out []string
	for v := 0; v < g.NumTerms(); v++ {
		t := g.Term(store.ID(v))
		out = append(out, t.Label(), t.Value())
	}
	return out
}

type workloadKB struct {
	name      string
	g         *store.Graph
	questions []bench.Question
	labels    bool // every label of the graph is a mention too (the small KBs)
}

func workloadKBs(t *testing.T) []workloadKB {
	t.Helper()
	yago, err := bench.BuildYagoKB()
	if err != nil {
		t.Fatal(err)
	}
	cinema := bench.NewCinemaKB()
	// 1000 people, not the benchmark's 20 000: "people" then reaches 1000
	// IRIs, which keeps the reference (a map and string sets per
	// candidate) inside the test's time under -race.
	nl, err := bench.NewNLScaleKB(1000, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []workloadKB{
		{"qald", bench.MustKB(), bench.Workload(), true},
		{"yago", yago, bench.YagoWorkload(), true},
		{"cinema", cinema.Graph, cinema.Questions, true},
		{"nlscale", nl.Graph, nl.Questions, false},
	}
}

func mentionsOf(kb workloadKB) []string {
	var ms []string
	for _, q := range kb.questions {
		ms = append(ms, ngrams(q.Text)...)
	}
	if kb.labels {
		ms = append(ms, labels(kb.g)...)
	}
	slices.Sort(ms)
	return slices.Compact(ms)
}

// TestLinkMatchesReferenceOnWorkloads is the identity gate of the flat
// index: on every 1–4-gram of every question of the four test workloads,
// and every label of the three small KBs, Link returns exactly what the
// pre-index Link returned, at every limit.
func TestLinkMatchesReferenceOnWorkloads(t *testing.T) {
	for _, kb := range workloadKBs(t) {
		lk, ref := linker.New(kb.g, linker.Options{}), linker.NewReference(kb.g)
		ms := mentionsOf(kb)
		failed := 0
		for _, m := range ms {
			if d, bad := differ(lk, ref, m); bad {
				t.Errorf("%s: %s", kb.name, d)
				if failed++; failed == 5 {
					break
				}
			}
		}
		t.Logf("%s: %d mentions × %d limits compared", kb.name, len(ms), len(limits))
	}
}

// TestLinkConcurrentUse: one Linker shared by eight goroutines returns
// what it returns sequentially (run under -race in tier 1).
func TestLinkConcurrentUse(t *testing.T) {
	nl, err := bench.NewNLScaleKB(1000, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	lk := linker.New(nl.Graph, linker.Options{})
	ms := mentionsOf(workloadKB{g: nl.Graph, questions: nl.Questions})
	want := make([][]linker.Candidate, len(ms))
	for i, m := range ms {
		want[i] = lk.Link(m, 10)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ms {
				i := (i + w*len(ms)/8) % len(ms) // each starts elsewhere
				if got := lk.Link(ms[i], 10); !slices.Equal(got, want[i]) {
					t.Errorf("goroutine %d: Link(%q) = %v, sequentially %v", w, ms[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLinkStopsAtTheKth pins the stop rule and the per-slot bound by the
// slots whose labels Link reads. On nl-scale's KB the mention "people"
// (lemma "person") reaches the class ⟨Person⟩ and every person's IRI: at
// limit 10 the walk reads the class, then persons in prior order until the
// tenth kept beats the class bound; with no limit it reads every slot it
// reaches. A three-token name reaches ~170 people who share its first or
// last name, but one shared token of three caps a label of two or more at
// 1/4, below minSimilarity, so at any limit only the few who share both
// are read. "Ciudad 0012" reaches all 42 cities and reads the one whose
// label shares both tokens.
func TestLinkStopsAtTheKth(t *testing.T) {
	nl, err := bench.NewNLScaleKB(2000, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	lk := linker.New(nl.Graph, linker.Options{})
	for _, c := range []struct {
		mention string
		limit   int
		lo, hi  int
	}{
		{"people", 10, 1, 10},
		{"people", 0, 2001, 2001},
		{"Jonas Kowalski 249", 10, 1, 5},
		{"Jonas Kowalski 249", 0, 1, 5},
		{"Ciudad 0012", 10, 1, 1},
		{"Ciudad 0012", 0, 1, 1},
	} {
		if n := lk.Scored(c.mention, c.limit); n < c.lo || n > c.hi {
			t.Errorf("Link(%q, %d) read %d slots, want %d to %d", c.mention, c.limit, n, c.lo, c.hi)
		}
	}
}

// words is the random graphs' vocabulary: singular/plural pairs (so a match
// can come from lemmas only), stop words, digits, punctuation and case.
var words = []string{
	"movie", "movies", "film", "films", "city", "cities", "person", "people",
	"Philadelphia", "76ers", "actor", "actors", "New", "York", "river",
	"boxes", "box", "the", "of", "a", "an", "II", "Queen", "Elizabeth",
}

// mentionWords adds a token no label has.
var mentionWords = append(slices.Clone(words), "zanzibar")

// quickStats counts the shapes the property must have met at least once.
// straddle counts mentions whose full list ties at a cut: equal scores at
// positions k−1 and k for a limit k the differential compares at. slack
// counts mentions with a candidate whose lemma overlap exceeds the lemma
// postings it is on, which the per-slot bound admits only through the
// slot's lemma-only IDs.
type quickStats struct{ dual, ties, straddle, lemmaOnly, slack, dataLiteral int }

// randomGraph builds a labelled graph from rng: entities named by one to
// three words, rdfs:label literals (shared across vertices and repeating a
// vertex's own name), classes with labels, random edges for degrees,
// nickname literals that are data values — one of them also a pure label
// elsewhere — and a run of 3–12 entities with one label and one degree,
// whose scores tie wherever a mention reaches them. With one graph in three
// an entity is also a class: the graph's read view is frozen before a type
// edge makes the entity a class, so the entity pass and the class pass
// both index it.
func randomGraph(rng *rand.Rand, st *quickStats) *store.Graph {
	g := store.New()
	add := func(s, p, o rdf.Term) { g.Add(rdf.T(s, p, o)) }
	phrase := func(sep string) string {
		ws := make([]string, 1+rng.Intn(3))
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(ws, sep)
	}
	typ, lbl := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSLabel)
	ents := make([]rdf.Term, 3+rng.Intn(10))
	for i := range ents {
		name := phrase("_")
		if rng.Intn(2) == 0 {
			name = fmt.Sprintf("%s_%d", name, i)
		}
		ents[i] = rdf.Resource(name)
		add(ents[i], rdf.Ontology("p0"), ents[rng.Intn(i+1)])
		switch rng.Intn(4) {
		case 0:
			add(ents[i], lbl, rdf.NewLiteral(strings.ReplaceAll(name, "_", " ")))
		case 1:
			add(ents[i], lbl, rdf.NewLiteral(phrase(" ")))
		case 2:
			add(ents[i], rdf.Ontology("nickname"), rdf.NewLiteral(phrase("-")))
		}
	}
	for range rng.Intn(2 * len(ents)) {
		add(ents[rng.Intn(len(ents))], rdf.Ontology(fmt.Sprint("p", rng.Intn(3))), ents[rng.Intn(len(ents))])
	}
	// A shared literal: the pure label of one vertex, a data value of another.
	shared := rdf.NewLiteral(phrase(" "))
	add(ents[0], lbl, shared)
	add(ents[1], rdf.Ontology("nickname"), shared)
	st.dataLiteral++
	// The tied run: IRI tokens no mention has, one shared label, and the
	// same two out-edges each.
	tied := rdf.NewLiteral(phrase(" "))
	for i := range 3 + rng.Intn(10) {
		e := rdf.Resource(fmt.Sprintf("tied_%d", i))
		add(e, lbl, tied)
		add(e, rdf.Ontology("p0"), ents[0])
	}
	for range 1 + rng.Intn(3) {
		c := rdf.Ontology(phrase(""))
		add(c, lbl, rdf.NewLiteral(phrase(" ")))
		add(ents[rng.Intn(len(ents))], typ, c)
	}
	if rng.Intn(3) == 0 {
		view := g.Freeze()
		add(ents[0], typ, ents[len(ents)-1])
		g.SetRemoteView(view)
		st.dual++
	}
	return g
}

// TestQuickLinkMatchesReference: on random labelled graphs, every label
// of the graph and random 1–4-word mentions (stop words, tokens no label
// has) link identically through the index and the reference.
func TestQuickLinkMatchesReference(t *testing.T) {
	var st quickStats
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, &st)
		lk, ref := linker.New(g, linker.Options{}), linker.NewReference(g)
		ms := append(labels(g), "", "the of", "movies", "zanzibar", "Zanzibar movies")
		for range 20 {
			ws := make([]string, 1+rng.Intn(4))
			for i := range ws {
				ws[i] = mentionWords[rng.Intn(len(mentionWords))]
			}
			ms = append(ms, strings.Join(ws, " "))
		}
		for _, m := range ms {
			if d, bad := differ(lk, ref, m); bad {
				t.Errorf("seed %d: %s", seed, d)
				return false
			}
			cands := lk.Link(m, 0)
			for i := 1; i < len(cands); i++ {
				if cands[i].Score == cands[i-1].Score {
					st.ties++
				}
			}
			if slices.ContainsFunc(limits[1:], func(k int) bool {
				return k < len(cands) && cands[k-1].Score == cands[k].Score
			}) {
				st.straddle++
			}
			if strings.EqualFold(m, "movies") && slices.ContainsFunc(cands, func(c linker.Candidate) bool {
				return g.Term(c.ID).Label() == "movie"
			}) {
				st.lemmaOnly++
			}
			if lk.LemmaSlack(m) {
				st.slack++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if st.dual == 0 || st.ties == 0 || st.straddle == 0 || st.lemmaOnly == 0 || st.slack == 0 || st.dataLiteral == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", st)
	}
	t.Logf("%+v", st)
}
