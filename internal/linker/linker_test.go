package linker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// phillyGraph reproduces the paper's ambiguity example: three vertices all
// matching the mention "Philadelphia", with the city the best-connected.
func phillyGraph(t testing.TB) (*store.Graph, map[string]store.ID) {
	t.Helper()
	g := store.New()
	ids := map[string]store.ID{}
	add := func(tr rdf.Triple) {
		if err := g.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	add(rdf.T(rdf.Resource("Philadelphia"), rdf.Ontology("country"), rdf.Resource("United_States")))
	add(rdf.T(rdf.Resource("Philadelphia"), rdf.Ontology("state"), rdf.Resource("Pennsylvania")))
	add(rdf.T(rdf.Resource("Philadelphia"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("City")))
	add(rdf.T(rdf.Resource("Philadelphia_(film)"), rdf.Ontology("starring"), rdf.Resource("Antonio_Banderas")))
	add(rdf.T(rdf.Resource("Philadelphia_(film)"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Film")))
	add(rdf.T(rdf.Resource("Philadelphia_76ers"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("BasketballTeam")))
	add(rdf.T(rdf.Resource("Antonio_Banderas"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Actor")))
	add(rdf.T(rdf.Resource("An_Actor_Prepares"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Book")))
	add(rdf.T(rdf.Ontology("Actor"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("actor")))
	add(rdf.T(rdf.Ontology("Film"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("film")))
	add(rdf.T(rdf.Ontology("Film"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("movie")))
	for _, name := range []string{"Philadelphia", "Philadelphia_(film)", "Philadelphia_76ers",
		"Antonio_Banderas", "An_Actor_Prepares"} {
		id, ok := g.Lookup(rdf.Resource(name))
		if !ok {
			t.Fatalf("missing %s", name)
		}
		ids[name] = id
	}
	for _, name := range []string{"Actor", "Film", "City", "Book", "BasketballTeam"} {
		id, ok := g.Lookup(rdf.Ontology(name))
		if !ok {
			t.Fatalf("missing class %s", name)
		}
		ids[name] = id
	}
	return g, ids
}

func find(cands []Candidate, id store.ID) (Candidate, bool) {
	for _, c := range cands {
		if c.ID == id {
			return c, true
		}
	}
	return Candidate{}, false
}

func TestLinkAmbiguousMention(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	cands := l.Link("Philadelphia", 10)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3: %v", len(cands), cands)
	}
	// All three Philadelphia vertices present; the bare-name city ranks
	// first (exact label match + highest degree).
	if cands[0].ID != ids["Philadelphia"] {
		t.Errorf("top candidate is %v, want the city", g.Term(cands[0].ID))
	}
	for _, name := range []string{"Philadelphia", "Philadelphia_(film)", "Philadelphia_76ers"} {
		c, ok := find(cands, ids[name])
		if !ok {
			t.Errorf("missing candidate %s", name)
			continue
		}
		if c.Score <= 0 || c.Score > 1 {
			t.Errorf("%s score %f out of range", name, c.Score)
		}
		if c.IsClass {
			t.Errorf("%s flagged as class", name)
		}
	}
}

func TestLinkClassAndEntity(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	cands := l.Link("actor", 10)
	// Both the class ⟨Actor⟩ and the entity ⟨An_Actor_Prepares⟩ must
	// surface, the class first (§4.2.1 example).
	cls, ok := find(cands, ids["Actor"])
	if !ok || !cls.IsClass {
		t.Fatalf("class Actor missing or unflagged: %v", cands)
	}
	book, ok := find(cands, ids["An_Actor_Prepares"])
	if !ok || book.IsClass {
		t.Fatalf("entity An_Actor_Prepares missing or misflagged: %v", cands)
	}
	if cls.Score <= book.Score {
		t.Errorf("class should outrank the book: %f vs %f", cls.Score, book.Score)
	}
}

func TestLinkViaAlternateLabel(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	// "movies" reaches class Film through the alias label and noun lemma.
	cands := l.Link("movies", 10)
	if _, ok := find(cands, ids["Film"]); !ok {
		t.Fatalf("movies did not link to Film: %v", cands)
	}
}

func TestLinkMultiwordMention(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	cands := l.Link("Antonio Banderas", 5)
	if len(cands) == 0 || cands[0].ID != ids["Antonio_Banderas"] {
		t.Fatalf("Antonio Banderas: %v", cands)
	}
	if cands[0].Score < 0.8 {
		t.Errorf("exact match score too low: %f", cands[0].Score)
	}
}

func TestLinkLimitAndOrdering(t *testing.T) {
	g, _ := phillyGraph(t)
	l := New(g, Options{})
	cands := l.Link("Philadelphia", 2)
	if len(cands) != 2 {
		t.Fatalf("limit ignored: %d", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
}

func TestLinkMisses(t *testing.T) {
	g, _ := phillyGraph(t)
	l := New(g, Options{})
	if got := l.Link("Zanzibar", 5); len(got) != 0 {
		t.Fatalf("unexpected candidates: %v", got)
	}
	if got := l.Link("", 5); len(got) != 0 {
		t.Fatalf("empty mention: %v", got)
	}
	if got := l.Link("the of a", 5); len(got) != 0 {
		t.Fatalf("stopword mention: %v", got)
	}
}

func TestSimilarity(t *testing.T) {
	cases := []struct {
		name          string
		inter, na, nb int
		want          float64
	}{
		{"philadelphia / philadelphia", 1, 1, 1, 1.0},
		{"philadelphia / philadelphia film", 1, 1, 2, 0.5},
		{"queen elizabeth ii / elizabeth ii", 2, 3, 2, 2.0 / 3.0},
		{"x / y", 0, 1, 1, 0},
		{"a b / b c: Jaccard, no containment", 1, 2, 2, 1.0 / 3.0},
		{"a b c d / a b e: Jaccard 2/5 wins over nothing", 2, 4, 3, 2.0 / 5.0},
	}
	for _, c := range cases {
		if got := similarity(c.inter, c.na, c.nb); got != c.want {
			t.Errorf("%s: similarity(%d, %d, %d) = %f, want %f", c.name, c.inter, c.na, c.nb, got, c.want)
		}
	}
	if similarity(1, 2, 1) != similarity(1, 1, 2) {
		t.Error("similarity not symmetric")
	}
	// The counts come from intersect over sorted token-ID sets.
	if got := intersect([]uint32{1, 3, 5, 9}, []uint32{0, 3, 4, 9, 12}); got != 2 {
		t.Errorf("intersect = %d, want 2", got)
	}
}

// TestLinkIsASnapshotOfNew: a Linker is the graph as New saw it. Before the
// degree prior was precomputed, Link read the live degree against the
// maximum fixed at New, so edges added afterwards pushed a score past 1
// (1.90 here).
func TestLinkIsASnapshotOfNew(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	before := l.Link("Philadelphia 76ers", 0)
	for i := range 20 {
		if err := g.Add(rdf.T(rdf.Resource("Philadelphia_76ers"), rdf.Ontology("player"),
			rdf.Resource(fmt.Sprintf("Player_%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	after := l.Link("Philadelphia 76ers", 0)
	if len(after) == 0 || after[0].ID != ids["Philadelphia_76ers"] {
		t.Fatalf("Philadelphia 76ers: %v", after)
	}
	for _, c := range after {
		if c.Score <= 0 || c.Score > 1 {
			t.Errorf("%v: score %f out of (0, 1] after a mutation", g.Term(c.ID), c.Score)
		}
	}
	if !slices.Equal(before, after) {
		t.Errorf("a mutation after New moved Link:\nbefore %v\nafter  %v", before, after)
	}
}

// TestLinkRecordsEveryMention: every Link call, including one whose
// mention normalises to nothing, moves the call counter, the latency
// histogram's count and (by what it returns) the candidate counter alike.
func TestLinkRecordsEveryMention(t *testing.T) {
	g, _ := phillyGraph(t)
	l := New(g, Options{})
	calls, observed, cands := linkTotal.Value(), linkSeconds.Count(), linkCandidates.Value()
	returned := 0
	for _, m := range []string{"", "the of a", "Philadelphia", "Zanzibar"} {
		returned += len(l.Link(m, 2))
	}
	if d := linkTotal.Value() - calls; d != 4 {
		t.Errorf("gqa_linker_link_total moved %d, want 4", d)
	}
	if d := linkSeconds.Count() - observed; d != 4 {
		t.Errorf("gqa_linker_link_seconds count moved %d, want 4 (one per Link call)", d)
	}
	if d := linkCandidates.Value() - cands; d != int64(returned) || returned != 2 {
		t.Errorf("gqa_linker_candidates_total moved %d, Link returned %d, want 2", d, returned)
	}
}

// TestLinkLemmaOnlyMatch: the label "Cities Box" is on the postings of
// "cities" and "box", not of "city", yet under the mention "city box" its
// lemma set {city, box} matches in full. The per-slot bound must count the
// slot's lemma-only "city": without it the slot, on one list of two, is
// capped at 1/3 and skipped.
func TestLinkLemmaOnlyMatch(t *testing.T) {
	g := store.New()
	if err := g.AddAll([]rdf.Triple{
		rdf.T(rdf.Resource("Cities_Box"), rdf.Ontology("p"), rdf.Resource("Box")),
		rdf.T(rdf.Resource("Box"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("City")),
	}); err != nil {
		t.Fatal(err)
	}
	l, ref := New(g, Options{}), newReference(g)
	for _, limit := range []int{0, 1} {
		got, want := l.Link("city box", limit), ref.Link("city box", limit)
		if !slices.Equal(got, want) {
			t.Errorf("Link(city box, %d) = %v, the reference %v", limit, got, want)
		}
		if len(got) == 0 || g.Term(got[0].ID).Label() != "Cities Box" {
			t.Errorf("Link(city box, %d) = %v, want Cities_Box first", limit, got)
		}
	}
}

func TestLinkClassContainmentRule(t *testing.T) {
	g, ids := phillyGraph(t)
	l := New(g, Options{})
	// "Gotham City" mentions an instance, not the class ⟨City⟩.
	for _, c := range l.Link("Gotham City", 10) {
		if c.IsClass {
			t.Fatalf("class leaked for instance mention: %v", g.Term(c.ID))
		}
	}
	// A bare class mention still links the class.
	cands := l.Link("city", 10)
	if _, ok := find(cands, ids["City"]); !ok {
		t.Fatalf("bare class mention failed: %v", cands)
	}
}

func TestLinkLiteralVertices(t *testing.T) {
	g := store.New()
	if err := g.AddAll([]rdf.Triple{
		rdf.T(rdf.Resource("Al_Capone"), rdf.Ontology("nickname"), rdf.NewLiteral("Scarface")),
		rdf.T(rdf.Resource("Al_Capone"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("Al Capone")),
	}); err != nil {
		t.Fatal(err)
	}
	l := New(g, Options{})
	cands := l.Link("Scarface", 5)
	if len(cands) != 1 {
		t.Fatalf("cands = %v", cands)
	}
	if term := g.Term(cands[0].ID); !term.IsLiteral() || term.Value() != "Scarface" {
		t.Fatalf("linked %v", term)
	}
	// Pure rdfs:label strings are NOT linkable vertices (their owner is).
	for _, c := range l.Link("Al Capone", 5) {
		if g.Term(c.ID).IsLiteral() {
			t.Fatalf("label literal leaked: %v", g.Term(c.ID))
		}
	}
}

// checkIndex asserts what the stop rule rests on: every label's set sizes
// lie in its slot's class, the classes partition the slots in (lo, hi)
// order, a class runs by descending prior then ascending ID, and every
// postings list ascends strictly.
func checkIndex(t *testing.T, name string, l *Linker) {
	t.Helper()
	next := uint32(0)
	for ci, c := range l.classes {
		if c.start != next || c.end <= c.start {
			t.Errorf("%s: class %d is slots %d:%d, want a non-empty run from %d", name, ci, c.start, c.end, next)
		}
		next = c.end
		if ci > 0 {
			if p := l.classes[ci-1]; p.lo > c.lo || p.lo == c.lo && p.hi >= c.hi {
				t.Errorf("%s: class [%d, %d] follows [%d, %d]", name, c.lo, c.hi, p.lo, p.hi)
			}
		}
		for s := c.start; s < c.end; s++ {
			for i := l.lab[s][0]; i < l.lab[s][1]; i++ {
				for _, n := range []uint32{l.lemOff[i] - l.tokOff[i], l.tokOff[i+1] - l.lemOff[i]} {
					if int(n) < c.lo || int(n) > c.hi {
						t.Errorf("%s: slot %d has a label set of %d tokens, outside its class [%d, %d]", name, s, n, c.lo, c.hi)
					}
				}
			}
			if s > c.start && (l.prior[s] > l.prior[s-1] || l.prior[s] == l.prior[s-1] && l.id[s] <= l.id[s-1]) {
				t.Errorf("%s: slot %d (prior %v, ID %d) follows prior %v, ID %d", name, s, l.prior[s], l.id[s], l.prior[s-1], l.id[s-1])
			}
		}
	}
	if int(next) != len(l.id) {
		t.Errorf("%s: classes cover %d of %d slots", name, next, len(l.id))
	}
	for tok := range len(l.postOff) - 1 {
		p := l.postings[l.postOff[tok]:l.postOff[tok+1]]
		if !slices.IsSorted(p) || len(slices.Compact(slices.Clone(p))) != len(p) {
			t.Errorf("%s: token %d's postings %v are not strictly ascending", name, tok, p)
		}
	}
}

// TestIndexInvariants checks the index on the Philadelphia graph and on
// random graphs with plural and repeated words, so raw and lemma sizes of
// one label differ, and slots with several labels of different sizes.
func TestIndexInvariants(t *testing.T) {
	g, _ := phillyGraph(t)
	checkIndex(t, "philly", New(g, Options{}))
	words := []string{"movie", "movies", "city", "cities", "box", "boxes", "New", "York", "the", "II"}
	for seed := range int64(20) {
		rng := rand.New(rand.NewSource(seed))
		g := store.New()
		phrase := func(sep string) string {
			ws := make([]string, 1+rng.Intn(4))
			for i := range ws {
				ws[i] = words[rng.Intn(len(words))]
			}
			return strings.Join(ws, sep)
		}
		ents := make([]rdf.Term, 5+rng.Intn(30))
		for i := range ents {
			ents[i] = rdf.Resource(fmt.Sprint(phrase("_"), "_", i%4))
			for range rng.Intn(3) {
				g.Add(rdf.T(ents[i], rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral(phrase(" "))))
			}
			g.Add(rdf.T(ents[i], rdf.Ontology("p"), ents[rng.Intn(i+1)]))
		}
		if rng.Intn(2) == 0 {
			g.Add(rdf.T(ents[0], rdf.NewIRI(rdf.RDFType), rdf.Ontology(phrase(""))))
		}
		checkIndex(t, fmt.Sprint("seed ", seed), New(g, Options{}))
	}
}

func TestLinkScoresBounded(t *testing.T) {
	g, _ := phillyGraph(t)
	l := New(g, Options{})
	for _, mention := range []string{"Philadelphia", "actor", "Antonio Banderas", "film"} {
		for _, c := range l.Link(mention, 0) {
			if c.Score <= 0 || c.Score > 1 {
				t.Fatalf("mention %q: score %f out of range", mention, c.Score)
			}
		}
	}
}
