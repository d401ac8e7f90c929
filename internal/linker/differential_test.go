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

// cuts are the two smallest candidate caps and the one BuildQueryGraph
// links with.
var cuts = []int{1, 2, 10}

// limits are the caps every differential compares lk at: the cuts, and
// every slot, a cap that cuts nothing.
func limits(lk *linker.Linker) []int { return append(slices.Clone(cuts), lk.Slots()) }

// differ returns the first limit at which the index and the reference
// return different candidates for mention — IDs, IsClass, Score compared
// with ==, and order — and a description of the difference.
func differ(lk *linker.Linker, ref *linker.Reference, mention string) (string, bool) {
	for _, limit := range limits(lk) {
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
		t.Logf("%s: %d mentions × %d limits compared", kb.name, len(ms), len(limits(lk)))
	}
}

// TestQueryMatchesReference: on every mention TestLinkMatchesMerge links,
// the mention tokeniser returns the parent's raw and lemma IDs and token
// counts.
func TestQueryMatchesReference(t *testing.T) {
	kbs := workloadKBs(t)
	big, err := nlScaleBenchmarkKB()
	if err != nil {
		t.Fatal(err)
	}
	kbs = append(kbs, workloadKB{name: "nlscale-20000", g: big.Graph, questions: big.Questions})
	for _, kb := range kbs {
		lk := linker.New(kb.g, linker.Options{})
		ms := append(mentionsOf(kb), "", "The Of", "São Paulo's", "a\xffb", "İstanbul", "\u212a2")
		for _, m := range ms {
			if d := lk.QueryDiff(m); d != "" {
				t.Fatalf("%s: %s", kb.name, d)
			}
		}
		t.Logf("%s: %d mentions compared", kb.name, len(ms))
	}
}

// differMerge returns the first limit at which the skip and the parent's
// merge differ for mention — in the candidates (== on every field, and
// order) or in the slots whose labels they read — and a description.
func differMerge(lk *linker.Linker, mg *linker.Merger, mention string) (string, bool) {
	for _, limit := range limits(lk) {
		got, gotScored := lk.Link(mention, limit), lk.Scored(mention, limit)
		want, wantScored, _ := mg.Link(mention, limit)
		if !slices.Equal(got, want) || gotScored != wantScored {
			return fmt.Sprintf("Link(%q, %d)\n got  %v (%d scored)\n want %v (%d scored)",
				mention, limit, got, gotScored, want, wantScored), true
		}
		if n := lk.Grown(mention, limit); n != 0 {
			return fmt.Sprintf("Link(%q, %d) grew the array its first keep sized %d times", mention, limit, n), true
		}
	}
	return "", false
}

// nlScaleBenchmarkKB is the nl-scale benchmark's KB at its default seed:
// 20 000 people, and the 98 questions the benchmark draws its 40 from.
var nlScaleBenchmarkKB = sync.OnceValues(func() (*bench.NLScaleKB, error) {
	return bench.NewNLScaleKB(20000, 98, 1)
})

// TestLinkMatchesMerge is the identity gate of the T-occurrence skip: on
// every mention of the four test workloads, and on every 1–4-gram of the
// questions the nl-scale benchmark asks of its 20 000-person KB, the skip
// returns exactly what the parent's k-way merge returned and reads the
// labels of exactly the slots it read, at every limit.
func TestLinkMatchesMerge(t *testing.T) {
	kbs := workloadKBs(t)
	big, err := nlScaleBenchmarkKB()
	if err != nil {
		t.Fatal(err)
	}
	kbs = append(kbs, workloadKB{name: "nlscale-20000", g: big.Graph, questions: big.Questions})
	for _, kb := range kbs {
		lk := linker.New(kb.g, linker.Options{})
		mg := linker.NewMerger(lk)
		ms := mentionsOf(kb)
		failed := 0
		for _, m := range ms {
			if d, bad := differMerge(lk, mg, m); bad {
				t.Errorf("%s: %s", kb.name, d)
				if failed++; failed == 5 {
					break
				}
			}
		}
		t.Logf("%s: %d mentions × %d limits compared", kb.name, len(ms), len(limits(lk)))
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
// tenth kept beats the class bound; at a cap of every slot it reads every
// slot it reaches. A three-token name reaches ~170 people who share its first or
// last name, but one shared token of three caps a label of two or more at
// 1/4, below minSimilarity, so at any limit only the few who share both
// are read. "Ciudad 0012" reaches all 42 cities and reads the one whose
// label shares both tokens.
//
// The postings rows pin the T-occurrence skip by the posting entries a
// link inspects: heads compared plus gallop probes, 149 for the name and
// 20 for the city. ("people" is one token, so its walk is a merge; its row
// holds the class stop, which the slots read cannot see: a walk that went
// on past the stop would skip every later slot, but read them all.) A slot must be on two of the mention's lists to pass,
// so the walk gallops past the slots on one. The parent's k-way merge
// advanced through all 180 postings of the name's lists and all 44 of
// the city's, one turn each.
func TestLinkStopsAtTheKth(t *testing.T) {
	nl, err := bench.NewNLScaleKB(2000, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	lk := linker.New(nl.Graph, linker.Options{})
	all := lk.Slots()
	for _, c := range []struct {
		mention string
		limit   int
		lo, hi  int
	}{
		{"people", 10, 1, 10},
		{"people", all, 2001, 2001},
		{"Jonas Kowalski 249", 10, 1, 5},
		{"Jonas Kowalski 249", all, 1, 5},
		{"Ciudad 0012", 10, 1, 1},
		{"Ciudad 0012", all, 1, 1},
	} {
		if n := lk.Scored(c.mention, c.limit); n < c.lo || n > c.hi {
			t.Errorf("Link(%q, %d) read %d slots, want %d to %d", c.mention, c.limit, n, c.lo, c.hi)
		}
	}
	for _, c := range []struct {
		mention string
		limit   int
		read    int
	}{
		{"people", 10, 11},
		{"Jonas Kowalski 249", 10, 149},
		{"Jonas Kowalski 249", all, 149},
		{"Ciudad 0012", 10, 20},
		{"Ciudad 0012", all, 20},
	} {
		if n := lk.Read(c.mention, c.limit); n != c.read {
			t.Errorf("Link(%q, %d) read %d posting entries, want %d", c.mention, c.limit, n, c.read)
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
// positions k−1 and k for a cut k the differential compares at. slack
// counts mentions with a candidate on the lemma-only postings of one of
// the mention's lemmas, which the per-slot bound counts only through those
// postings. The rest are the skip's: jumped counts links where a gallop
// passed a posting beyond a list's head, unreached those where a slot met
// a threshold only on lemma-only lists and so was not visited, uneven
// those that walked a class with tRaw ≠ tLem, and single those that walked
// a class with a threshold of 1.
type quickStats struct {
	dual, ties, straddle, lemmaOnly, slack, dataLiteral int
	jumped, unreached, uneven, single                   int
}

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

// randomMention joins one to four words of mentionWords.
func randomMention(rng *rand.Rand) string {
	ws := make([]string, 1+rng.Intn(4))
	for i := range ws {
		ws[i] = mentionWords[rng.Intn(len(mentionWords))]
	}
	return strings.Join(ws, " ")
}

// TestQuickLinkMatchesReference: on random labelled graphs, every label
// of the graph and random 1–4-word mentions (stop words, tokens no label
// has) link identically through the index, the reference and the parent's
// merge, which also reads the labels of the same slots.
func TestQuickLinkMatchesReference(t *testing.T) {
	var st quickStats
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, &st)
		lk, ref := linker.New(g, linker.Options{}), linker.NewReference(g)
		mg := linker.NewMerger(lk)
		ms := append(labels(g), "", "the of", "movies", "zanzibar", "Zanzibar movies")
		for range 20 {
			ms = append(ms, randomMention(rng))
		}
		for _, m := range ms {
			if d, bad := differ(lk, ref, m); bad {
				t.Errorf("seed %d: %s", seed, d)
				return false
			}
			if d := lk.QueryDiff(m); d != "" {
				t.Errorf("seed %d: %s", seed, d)
				return false
			}
			if d, bad := differMerge(lk, mg, m); bad {
				t.Errorf("seed %d, against the merge: %s", seed, d)
				return false
			}
			for _, limit := range limits(lk) {
				sh := lk.Shapes(m, limit)
				st.jumped += min(sh.Jumped, 1)
				st.unreached += min(sh.Unreached, 1)
				st.uneven += min(sh.Uneven, 1)
				st.single += min(sh.Single, 1)
			}
			cands := lk.Link(m, lk.Slots())
			for i := 1; i < len(cands); i++ {
				if cands[i].Score == cands[i-1].Score {
					st.ties++
				}
			}
			if slices.ContainsFunc(cuts, func(k int) bool {
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
	if st.dual == 0 || st.ties == 0 || st.straddle == 0 || st.lemmaOnly == 0 || st.slack == 0 || st.dataLiteral == 0 ||
		st.jumped == 0 || st.unreached == 0 || st.uneven == 0 || st.single == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", st)
	}
	t.Logf("%+v", st)
}

// FuzzLink compares the skip with the parent's merge, and the mention
// tokeniser with the parent's, on a graph drawn from the fuzzed seed, for
// the fuzzed mention and for a random one.
func FuzzLink(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, "movies")
		f.Add(seed, "Philadelphia 76ers cities")
	}
	f.Add(int64(42), "New York box II")
	f.Fuzz(func(t *testing.T, seed int64, mention string) {
		rng := rand.New(rand.NewSource(seed))
		lk := linker.New(randomGraph(rng, &quickStats{}), linker.Options{})
		mg := linker.NewMerger(lk)
		for _, m := range []string{mention, randomMention(rng)} {
			if d, bad := differMerge(lk, mg, m); bad {
				t.Fatalf("seed %d: %s", seed, d)
			}
			if d := lk.QueryDiff(m); d != "" {
				t.Fatalf("seed %d: %s", seed, d)
			}
		}
	})
}
