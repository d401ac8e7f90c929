package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/nlp"
	"gqa/internal/obs"
)

func mustParse(t *testing.T, q string) *nlp.DepTree {
	t.Helper()
	y, err := nlp.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestFindEmbeddingsRunningExample(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Who was married to an actor that played in Philadelphia?")
	embs := FindEmbeddings(y, d)
	if len(embs) != 2 {
		t.Fatalf("got %d embeddings, want 2", len(embs))
	}
	texts := map[string]bool{}
	for _, e := range embs {
		texts[e.phrase.Text] = true
	}
	if !texts["be married to"] || !texts["play in"] {
		t.Fatalf("embeddings = %v", texts)
	}
}

func TestEmbeddingMaximality(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	// Add a sub-phrase that must lose to the longer embedding.
	d.Add("marry", d.Phrases()[0].Entries)
	y := mustParse(t, "Who was married to Antonio Banderas?")
	embs := FindEmbeddings(y, d)
	if len(embs) != 1 {
		t.Fatalf("got %d embeddings", len(embs))
	}
	if embs[0].phrase.Text != "be married to" {
		t.Fatalf("maximality picked %q", embs[0].phrase.Text)
	}
}

func TestEmbeddingRequiresConnectedWords(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	// "play in" must not be found when "in" is not below "play"'s subtree
	// region — e.g. a question containing "play" but whose "in" hangs
	// elsewhere. "Did Banderas play?" has no "in" at all.
	y := mustParse(t, "Did Antonio Banderas play?")
	for _, e := range FindEmbeddings(y, d) {
		if e.phrase.Text == "play in" {
			t.Fatalf("found 'play in' without 'in': %v", e.nodes)
		}
	}
}

func TestExtractRelationsArguments(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Who was married to an actor that played in Philadelphia?")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) != 2 {
		t.Fatalf("got %d relations", len(rels))
	}
	var married, play *SemanticRelation
	for i := range rels {
		switch rels[i].Phrase.Text {
		case "be married to":
			married = &rels[i]
		case "play in":
			play = &rels[i]
		}
	}
	if married == nil || play == nil {
		t.Fatal("missing relations")
	}
	if married.Arg1.Text != "who" || !married.Arg1.Wh {
		t.Fatalf("married arg1 = %+v", married.Arg1)
	}
	if married.Arg2.Text != "actor" {
		t.Fatalf("married arg2 = %+v", married.Arg2)
	}
	if play.Arg1.Text != "that" {
		t.Fatalf("play arg1 = %+v", play.Arg1)
	}
	if play.Arg2.Text != "Philadelphia" {
		t.Fatalf("play arg2 = %+v", play.Arg2)
	}
	// Base rule found all four arguments.
	if married.Rule[0] != 0 || married.Rule[1] != 0 {
		t.Fatalf("married rules = %v", married.Rule)
	}
}

func TestRule2RootAsArgument(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	d.Add("director of", d.Phrases()[3].Entries) // reuse director path
	y := mustParse(t, "Give me the director of Philadelphia.")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) != 1 {
		t.Fatalf("got %d relations: %+v", len(rels), rels)
	}
	r := rels[0]
	// "director" (embedding root, dobj of Give) becomes arg1 via Rule 2.
	if r.Arg1.Text != "director" || r.Rule[0] != 2 {
		t.Fatalf("arg1 = %+v rule %v", r.Arg1, r.Rule)
	}
	if r.Arg2.Text != "Philadelphia" {
		t.Fatalf("arg2 = %+v", r.Arg2)
	}
}

func TestRuleExtendedNounParent(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Give me all movies directed by Jonathan Demme.")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) != 1 {
		t.Fatalf("got %d relations: %+v", len(rels), rels)
	}
	r := rels[0]
	if r.Arg1.Text != "movies" || r.Rule[0] != 2 {
		t.Fatalf("arg1 = %+v rule %v", r.Arg1, r.Rule)
	}
	if r.Arg2.Text != "Jonathan Demme" {
		t.Fatalf("arg2 = %+v", r.Arg2)
	}
}

// TestRule4FirstNoun: rule 4's noun fallback. "Is he the mayor of?" has
// no object outside the embedding of "be the mayor of" and no wh-word, so
// arg2 is the first noun inside the embedding, "mayor"; arg1 is the
// subject the base scan finds.
func TestRule4FirstNoun(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	d.Add("be the mayor of", d.Phrases()[3].Entries)
	y := mustParse(t, "Is he the mayor of?")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) != 1 {
		t.Fatalf("got %d relations: %+v", len(rels), rels)
	}
	r := rels[0]
	if r.Arg1.Text != "he" || r.Rule[0] != 0 {
		t.Fatalf("arg1 = %+v rule %v", r.Arg1, r.Rule)
	}
	if r.Arg2.Text != "mayor" || r.Arg2.Wh || r.Rule[1] != 4 || !slices.Contains(r.Embedding, r.Arg2.Node) {
		t.Fatalf("arg2 = %+v rule %v, want the embedding's noun by rule 4", r.Arg2, r.Rule)
	}
}

func TestRulesDisabledDropsRelations(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Give me all movies directed by Jonathan Demme.")
	rels := ExtractRelations(y, d, ExtractOptions{DisableHeuristicRules: true})
	// Without Rule 2, arg1 of "directed by" cannot be found → discarded.
	if len(rels) != 0 {
		t.Fatalf("rules disabled still extracted %d relations: %+v", len(rels), rels)
	}
	// The base case still works where plain subject/object dependencies
	// exist.
	y = mustParse(t, "Who was married to Antonio Banderas?")
	rels = ExtractRelations(y, d, ExtractOptions{DisableHeuristicRules: true})
	if len(rels) != 1 {
		t.Fatalf("base-rule extraction failed: %+v", rels)
	}
}

func TestConjSubjectInheritance(t *testing.T) {
	g, ids := figure1Graph(t)
	_ = g
	d := figure1Dict(ids)
	p1 := d.Phrases()[0].Entries
	d.Add("be born in", p1)
	d.Add("die in", p1)
	y := mustParse(t, "Give me all people that were born in Vienna and died in Berlin.")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) != 2 {
		t.Fatalf("got %d relations: %+v", len(rels), rels)
	}
	if rels[0].Arg1.Node != rels[1].Arg1.Node {
		t.Fatalf("conj subject not inherited: %+v vs %+v", rels[0].Arg1, rels[1].Arg1)
	}
}

func TestArgumentTextExcludesClauses(t *testing.T) {
	y := mustParse(t, "Who was married to an actor that played in Philadelphia?")
	// Find the "actor" node.
	for i := 0; i < y.Size(); i++ {
		if y.Node(i).Lower == "actor" {
			if got := argumentText(y, i); got != "actor" {
				t.Fatalf("argumentText = %q", got)
			}
		}
	}
	y = mustParse(t, "In which city was the former Dutch queen Juliana buried?")
	for i := 0; i < y.Size(); i++ {
		if y.Node(i).Lower == "juliana" {
			if got := argumentText(y, i); got != "former Dutch queen Juliana" {
				t.Fatalf("argumentText = %q", got)
			}
		}
	}
}

// embedWords is the random trees' and dictionaries' vocabulary: surface
// forms that share a lemma ("was", "is", "be"), one whose untagged lemma
// lemmatizes again ("things" → "thing" → "th"), and light words.
var embedWords = []string{"be", "was", "is", "married", "to", "play", "plays", "in", "of", "film", "thing", "things"}

// randomTree builds a valid dependency tree of one to nine nodes over
// embedWords, each word its own tree lemma, rooted anywhere.
func randomTree(rng *rand.Rand) *nlp.DepTree {
	n := 1 + rng.Intn(9)
	y := &nlp.DepTree{Nodes: make([]nlp.Node, n)}
	for i := range y.Nodes {
		w := embedWords[rng.Intn(len(embedWords))]
		y.Nodes[i] = nlp.Node{Token: nlp.Token{Index: i, Text: w, Lower: w, Lemma: w}, Head: -1}
	}
	perm := rng.Perm(n)
	y.Root = perm[0]
	for k := 1; k < n; k++ {
		c, h := perm[k], perm[rng.Intn(k)]
		y.Nodes[c].Head = h
		y.Nodes[h].Children = append(y.Nodes[h].Children, c)
	}
	for i := range y.Nodes {
		slices.Sort(y.Nodes[i].Children)
	}
	return y
}

// TestQuickEmbeddingsMatchReference: over random dictionaries — phrases
// with a repeated word, phrases sharing words, and Adds that replace an
// existing key — and random trees, FindEmbeddings returns the reference's
// candidates in the reference's order, and Phrases keeps first-Add order.
func TestQuickEmbeddingsMatchReference(t *testing.T) {
	var st struct{ repeated, shared, replaced, slotTies, probeKey int }
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, ref := dict.New(), newRefDict()
		for range 1 + rng.Intn(12) {
			ws := make([]string, 1+rng.Intn(4))
			for i := range ws {
				ws[i] = embedWords[rng.Intn(len(embedWords))]
			}
			before := len(d.Phrases())
			ref.add(d.Add(strings.Join(ws, " "), []dict.Entry{{Score: 1}}))
			if len(d.Phrases()) == before {
				st.replaced++
			}
		}
		for i, p := range d.Phrases() {
			if key := strings.Join(p.Lemmas, " "); key != ref.ordered[i] || p != ref.phrases[key] {
				t.Errorf("seed %d: Phrases()[%d] = %q, the reference has %q", seed, i, key, ref.ordered[i])
				return false
			}
		}
		for _, keys := range ref.inverted {
			if len(keys) > 1 {
				st.shared++
			}
		}
		for range 10 {
			y := randomTree(rng)
			got, want := FindEmbeddings(y, d), refFindEmbeddings(y, ref)
			if !slices.EqualFunc(got, want, func(a, b embeddingCandidate) bool {
				return a.phrase == b.phrase && a.root == b.root && slices.Equal(a.nodes, b.nodes)
			}) {
				t.Errorf("seed %d: tree nodes %+v\n got  %v\n want %v", seed, y.Nodes, got, want)
				return false
			}
			for _, c := range want {
				if len(refDedupeWords(c.phrase.Lemmas)) < len(c.phrase.Lemmas) {
					st.repeated++
				}
			}
			// Two candidates at one root of equal size that overlap: which
			// one filterMaximal keeps is the word list's insertion order.
			var at []embeddingCandidate
			for root := range y.Size() {
				if l := canonLemma(y.Node(root)); nlp.Lemma(l, "") != l {
					st.probeKey++
				}
				at = at[:0]
				for _, p := range ref.PhrasesWithWord(canonLemma(y.Node(root))) {
					if nodes, ok := refEmbedAt(y, root, p); ok {
						at = append(at, embeddingCandidate{p, root, nodes})
					}
				}
				for i := range at {
					for j := range i {
						a, b := at[i], at[j]
						if len(a.nodes) == len(b.nodes) && len(a.phrase.Lemmas) == len(b.phrase.Lemmas) &&
							slices.ContainsFunc(a.nodes, func(n int) bool { return slices.Contains(b.nodes, n) }) {
							st.slotTies++
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if st.repeated == 0 || st.shared == 0 || st.replaced == 0 || st.slotTies == 0 || st.probeKey == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", st)
	}
	t.Logf("%+v", st)
}

// TestWordProbesCountEveryNode: Algorithm 2 counts one inverted-index word
// probe per tree node, whether or not the node's word is in a phrase.
func TestWordProbesCountEveryNode(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Who was married to an actor that played in Philadelphia?")
	probes := obs.DefaultCounter("gqa_dict_word_probes_total", "")
	before := probes.Value()
	FindEmbeddings(y, d)
	if got := probes.Value() - before; got != int64(y.Size()) {
		t.Fatalf("%d word probes for %d nodes", got, y.Size())
	}
}

// TestExtractRelationsAllocs bounds what extracting the running example's
// relations allocates: the candidates, their node lists in one slab, and
// the relations. A map, a key string or a phrase list per probe, or a
// working buffer off the stack, would break the bound.
func TestExtractRelationsAllocs(t *testing.T) {
	_, ids := figure1System(t, Options{})
	d := figure1Dict(ids)
	y := mustParse(t, "Who was married to an actor that played in Philadelphia?")
	const ceiling = 3
	if allocs := testing.AllocsPerRun(100, func() { ExtractRelations(y, d, ExtractOptions{}) }); allocs > ceiling {
		t.Fatalf("ExtractRelations allocates %v times, at most %d", allocs, ceiling)
	}
	if rels := ExtractRelations(y, d, ExtractOptions{}); len(rels) != 2 || cap(rels) != len(rels) {
		t.Fatalf("%d relations, capacity %d: want 2, sized once", len(rels), cap(rels))
	}
}
