package nlp

import (
	"strings"
	"testing"
)

// dep finds the relation between a dependent word and its head word in the
// tree, returning "" if the word is absent.
func dep(t *testing.T, y *DepTree, word string) (rel, head string) {
	t.Helper()
	for _, n := range y.Nodes {
		if n.Lower == strings.ToLower(word) {
			if n.Head == -1 {
				return RelRoot, ""
			}
			return n.Rel, y.Nodes[n.Head].Lower
		}
	}
	t.Fatalf("word %q not in tree:\n%s", word, treeString(y))
	return "", ""
}

func parseOK(t *testing.T, q string) *DepTree {
	t.Helper()
	y, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	if err := y.Validate(); err != nil {
		t.Fatalf("Parse(%q) produced invalid tree: %v\n%s", q, err, treeString(y))
	}
	return y
}

func expectDeps(t *testing.T, q string, want [][3]string) *DepTree {
	t.Helper()
	y := parseOK(t, q)
	for _, w := range want {
		rel, head := dep(t, y, w[2])
		if rel != w[0] || head != strings.ToLower(w[1]) {
			t.Errorf("%q: want %s(%s, %s), got %s(%s, %s)\n%s",
				q, w[0], w[1], w[2], rel, head, w[2], treeString(y))
		}
	}
	return y
}

func TestParseRunningExample(t *testing.T) {
	// The paper's running example (Figure 5).
	y := expectDeps(t, "Who was married to an actor that played in Philadelphia?", [][3]string{
		{RelRoot, "", "married"},
		{RelAuxPass, "married", "was"},
		{RelNsubjPass, "married", "who"},
		{RelPrep, "married", "to"},
		{RelPobj, "to", "actor"},
		{RelDet, "actor", "an"},
		{RelRcmod, "actor", "played"},
		{RelNsubj, "played", "that"},
		{RelPrep, "played", "in"},
		{RelPobj, "in", "philadelphia"},
	})
	// Coref: "that" refers to "actor".
	coref := ResolveCoref(y)
	thatIdx, actorIdx := -1, -1
	for i, n := range y.Nodes {
		switch n.Lower {
		case "that":
			thatIdx = i
		case "actor":
			actorIdx = i
		}
	}
	if coref[thatIdx] != actorIdx {
		t.Errorf("coref: want that→actor, got %v", coref)
	}
}

func TestParsePrepositionFrontingEquivalence(t *testing.T) {
	// §4.1: both orderings must yield the same dependency structure.
	a := expectDeps(t, "In which movies did Antonio Banderas star?", [][3]string{
		{RelRoot, "", "star"},
		{RelAux, "star", "did"},
		{RelNsubj, "star", "banderas"},
		{RelPrep, "star", "in"},
		{RelPobj, "in", "movies"},
		{RelDet, "movies", "which"},
		{RelNn, "banderas", "antonio"},
	})
	b := expectDeps(t, "Which movies did Antonio Banderas star in?", [][3]string{
		{RelRoot, "", "star"},
		{RelAux, "star", "did"},
		{RelNsubj, "star", "banderas"},
		{RelPrep, "star", "in"},
		{RelPobj, "in", "movies"},
	})
	_ = a
	_ = b
}

func TestParseCopularWh(t *testing.T) {
	expectDeps(t, "Who is the mayor of Berlin?", [][3]string{
		{RelRoot, "", "mayor"},
		{RelCop, "mayor", "is"},
		{RelNsubj, "mayor", "who"},
		{RelDet, "mayor", "the"},
		{RelPrep, "mayor", "of"},
		{RelPobj, "of", "berlin"},
	})
	expectDeps(t, "What is the capital of Canada?", [][3]string{
		{RelRoot, "", "capital"},
		{RelNsubj, "capital", "what"},
		{RelPobj, "of", "canada"},
	})
}

func TestParseCopularYesNo(t *testing.T) {
	expectDeps(t, "Is Michelle Obama the wife of Barack Obama?", [][3]string{
		{RelRoot, "", "wife"},
		{RelCop, "wife", "is"},
		{RelPrep, "wife", "of"},
	})
}

func TestParsePredicativeAdjective(t *testing.T) {
	expectDeps(t, "How tall is Michael Jordan?", [][3]string{
		{RelRoot, "", "tall"},
		{RelAdvmod, "tall", "how"},
		{RelCop, "tall", "is"},
		{RelNsubj, "tall", "jordan"},
	})
}

func TestParseImperative(t *testing.T) {
	expectDeps(t, "Give me all members of Prodigy.", [][3]string{
		{RelRoot, "", "give"},
		{RelIobj, "give", "me"},
		{RelDobj, "give", "members"},
		{RelDet, "members", "all"},
		{RelPrep, "members", "of"},
		{RelPobj, "of", "prodigy"},
	})
}

func TestParseImperativeWithReducedRelative(t *testing.T) {
	expectDeps(t, "Give me all movies directed by Francis Ford Coppola.", [][3]string{
		{RelRoot, "", "give"},
		{RelDobj, "give", "movies"},
		{RelRcmod, "movies", "directed"},
		{RelPrep, "directed", "by"},
		{RelPobj, "by", "coppola"},
	})
}

func TestParseDoSupportWithStrandedPrep(t *testing.T) {
	expectDeps(t, "Which cities does the Weser flow through?", [][3]string{
		{RelRoot, "", "flow"},
		{RelAux, "flow", "does"},
		{RelNsubj, "flow", "weser"},
		{RelPrep, "flow", "through"},
		{RelPobj, "through", "cities"},
	})
}

func TestParseWhSubject(t *testing.T) {
	expectDeps(t, "Who developed Minecraft?", [][3]string{
		{RelRoot, "", "developed"},
		{RelNsubj, "developed", "who"},
		{RelDobj, "developed", "minecraft"},
	})
	expectDeps(t, "Who created the comic Captain America?", [][3]string{
		{RelRoot, "", "created"},
		{RelNsubj, "created", "who"},
		{RelDobj, "created", "america"},
	})
}

func TestParseFrontedWhObject(t *testing.T) {
	expectDeps(t, "Who did Amanda Palmer marry?", [][3]string{
		{RelRoot, "", "marry"},
		{RelAux, "marry", "did"},
		{RelNsubj, "marry", "palmer"},
		{RelDobj, "marry", "who"},
	})
}

func TestParseAdverbialWh(t *testing.T) {
	expectDeps(t, "When did Michael Jackson die?", [][3]string{
		{RelRoot, "", "die"},
		{RelAux, "die", "did"},
		{RelNsubj, "die", "jackson"},
		{RelAdvmod, "die", "when"},
	})
}

func TestParsePassiveInversion(t *testing.T) {
	expectDeps(t, "In which city was the former Dutch queen Juliana buried?", [][3]string{
		{RelRoot, "", "buried"},
		{RelAuxPass, "buried", "was"},
		{RelNsubjPass, "buried", "juliana"},
		{RelPrep, "buried", "in"},
		{RelPobj, "in", "city"},
	})
}

func TestParsePassiveWhSubject(t *testing.T) {
	expectDeps(t, "Which countries are connected by the Rhine?", [][3]string{
		{RelRoot, "", "connected"},
		{RelAuxPass, "connected", "are"},
		{RelNsubjPass, "connected", "countries"},
		{RelPrep, "connected", "by"},
		{RelPobj, "by", "rhine"},
	})
}

func TestParseConjoinedClauses(t *testing.T) {
	y := expectDeps(t, "Give me all people that were born in Vienna and died in Berlin.", [][3]string{
		{RelRoot, "", "give"},
		{RelDobj, "give", "people"},
		{RelRcmod, "people", "born"},
		{RelNsubjPass, "born", "that"},
		{RelPobj, "in", "vienna"}, // first "in"
		{RelConj, "born", "died"},
		{RelCc, "born", "and"},
	})
	// The second "in" must attach to "died".
	var secondIn *Node
	for i := range y.Nodes {
		n := &y.Nodes[i]
		if n.Lower == "in" && y.Nodes[n.Head].Lower == "died" {
			secondIn = n
		}
	}
	if secondIn == nil {
		t.Fatalf("second 'in' not attached to died:\n%s", treeString(y))
	}
	for _, c := range secondIn.Children {
		if y.Nodes[c].Lower != "berlin" {
			t.Fatalf("pobj of second in: %s", y.Nodes[c].Lower)
		}
	}
}

func TestParseNounCompoundAndPossessHandling(t *testing.T) {
	expectDeps(t, "What is the birth name of Angela Merkel?", [][3]string{
		{RelRoot, "", "name"},
		{RelNn, "name", "birth"},
		{RelNsubj, "name", "what"},
		{RelPobj, "of", "merkel"},
	})
}

func TestParsePossessive(t *testing.T) {
	expectDeps(t, "What is Angela Merkel's birth name?", [][3]string{
		{RelRoot, "", "name"},
		{RelCop, "name", "is"},
		{RelNsubj, "name", "what"},
		{RelPoss, "name", "merkel"},
		{RelNn, "merkel", "angela"},
		{RelNn, "name", "birth"},
	})
}

func TestParseDeclarativeWithWhInPP(t *testing.T) {
	expectDeps(t, "Sean Parnell is the governor of which U.S. state?", [][3]string{
		{RelRoot, "", "governor"},
		{RelCop, "governor", "is"},
		{RelNsubj, "governor", "parnell"},
		{RelPrep, "governor", "of"},
		{RelPobj, "of", "state"},
	})
}

func TestParseEmbeddedSubjectQuestion(t *testing.T) {
	expectDeps(t, "Which country does the creator of Miffy come from?", [][3]string{
		{RelRoot, "", "come"},
		{RelAux, "come", "does"},
		{RelNsubj, "come", "creator"},
		{RelPrep, "creator", "of"},
		{RelPobj, "of", "miffy"},
		{RelPrep, "come", "from"},
		{RelPobj, "from", "country"},
	})
}

func TestParseAlwaysProducesValidTree(t *testing.T) {
	// Every question (including odd ones) must yield a valid tree.
	questions := []string{
		"Who was the successor of John F. Kennedy?",
		"Give me all cars that are produced in Germany.",
		"How high is the Mount Everest?",
		"Who founded Intel?",
		"Who is the husband of Amanda Palmer?",
		"What are the nicknames of San Francisco?",
		"Give me all Argentine films.",
		"List the children of Margaret Thatcher.",
		"Who was called Scarface?",
		"Which books by Kerouac were published by Viking Press?",
		"Who produces Orangina?",
		"Is Michelle Obama the wife of Barack Obama?",
		"Who is the youngest player in the Premier League?",
		"strange fragment without any verb at all",
		"flow flow flow",
		"of",
		"who",
	}
	for _, q := range questions {
		y := parseOK(t, q)
		if y.Size() == 0 {
			t.Errorf("%q: empty tree", q)
		}
	}
}

func TestParseEmptyFails(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Fatal("expected error for empty question")
	}
	if _, err := Parse("?!"); err == nil {
		t.Fatal("expected error for punctuation-only question")
	}
}

func TestSubtreeText(t *testing.T) {
	y := parseOK(t, "In which city was the former Dutch queen Juliana buried?")
	// Find the subject head and verify the subtree text covers the NP.
	for i, n := range y.Nodes {
		if n.Rel == RelNsubjPass {
			got := y.SubtreeText(i)
			if got != "the former Dutch queen Juliana" {
				t.Fatalf("SubtreeText = %q", got)
			}
			_ = i
		}
	}
}

func TestParseNPCoordination(t *testing.T) {
	y := expectDeps(t, "Which films star Antonio Banderas and Anthony Hopkins?", [][3]string{
		{RelRoot, "", "star"},
		{RelNsubj, "star", "films"},
		{RelDobj, "star", "banderas"},
		{RelConj, "banderas", "hopkins"},
		{RelCc, "banderas", "and"},
	})
	_ = y
	// Verb coordination must win over NP coordination when a verb follows.
	expectDeps(t, "Give me all people that were born in Vienna and died in Berlin.", [][3]string{
		{RelConj, "born", "died"},
	})
}

// TestParseAllocs bounds what parsing the running example allocates: the
// tree, its nodes, the one slab of their children, and the lowered forms of
// its two capitalised words. The tokens and the parser's chunks and verb
// lists are on the stack; a map or a closure per subtree walk, or a token
// built rune by rune, would break the bound.
func TestParseAllocs(t *testing.T) {
	const q = "Who was married to an actor that played in Philadelphia?"
	const ceiling = 5
	if allocs := testing.AllocsPerRun(100, func() { Parse(q) }); allocs > ceiling {
		t.Fatalf("Parse allocates %v times, at most %d", allocs, ceiling)
	}
}
