package dict

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// minedFixture builds a small KB with several relation phrases so tf-idf
// has a corpus to discriminate against: spouse marriages, starring, and the
// three-step "uncle of", with hasGender noise on everyone.
func minedFixture(t testing.TB) (*store.Graph, []SupportSet, map[string]store.ID) {
	t.Helper()
	g := store.New()
	ids := make(map[string]store.ID)
	ent := func(n string) store.ID { id := g.Intern(rdf.Resource(n)); ids[n] = id; return id }
	pred := func(n string) store.ID { id := g.Intern(rdf.Ontology(n)); ids[n] = id; return id }

	spouse, starring, hasChild, hasGender := pred("spouse"), pred("starring"), pred("hasChild"), pred("hasGender")
	male, female := ent("male"), ent("female")
	_ = female

	// Three married couples. Everyone shares the same hasGender target so
	// the ⟨hasGender, hasGender⁻¹⟩ noise path appears in several phrases'
	// path sets, as in the paper's §3 example.
	couples := [][2]store.ID{}
	for i := 0; i < 3; i++ {
		a := ent(fmt.Sprintf("Husband%d", i))
		b := ent(fmt.Sprintf("Wife%d", i))
		g.AddSPO(a, spouse, b)
		g.AddSPO(a, hasGender, male)
		g.AddSPO(b, hasGender, male)
		couples = append(couples, [2]store.ID{a, b})
	}
	// Three actor-film pairs.
	films := [][2]store.ID{}
	for i := 0; i < 3; i++ {
		f := ent(fmt.Sprintf("Film%d", i))
		a := ent(fmt.Sprintf("Actor%d", i))
		g.AddSPO(f, starring, a)
		g.AddSPO(a, hasGender, male)
		films = append(films, [2]store.ID{a, f})
	}
	// Two uncle relationships (grandparent with two children, one of whom
	// has a child).
	uncles := [][2]store.ID{}
	for i := 0; i < 2; i++ {
		gp := ent(fmt.Sprintf("Grandpa%d", i))
		uncle := ent(fmt.Sprintf("Uncle%d", i))
		parent := ent(fmt.Sprintf("Parent%d", i))
		nephew := ent(fmt.Sprintf("Nephew%d", i))
		g.AddSPO(gp, hasChild, uncle)
		g.AddSPO(gp, hasChild, parent)
		g.AddSPO(parent, hasChild, nephew)
		g.AddSPO(uncle, hasGender, male)
		g.AddSPO(nephew, hasGender, male)
		uncles = append(uncles, [2]store.ID{uncle, nephew})
	}

	sets := []SupportSet{
		{Phrase: "be married to", Pairs: couples},
		{Phrase: "play in", Pairs: films},
		{Phrase: "uncle of", Pairs: uncles},
		{Phrase: "nonexistent relation", Pairs: [][2]store.ID{{ids["male"], ids["female"]}}},
	}
	return g, sets, ids
}

func topPath(t *testing.T, d *Dictionary, phrase string) Path {
	t.Helper()
	p, ok := d.Lookup(phrase)
	if !ok {
		t.Fatalf("phrase %q not mined", phrase)
	}
	if len(p.Entries) == 0 {
		t.Fatalf("phrase %q has no entries", phrase)
	}
	return p.Entries[0].Path
}

func TestMineFindsSinglePredicates(t *testing.T) {
	g, sets, ids := minedFixture(t)
	d, stats := Mine(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	if stats.Phrases != 4 || stats.PairsProbed != 9 {
		t.Fatalf("stats = %+v", stats)
	}
	married := topPath(t, d, "be married to")
	if len(married) != 1 || married[0].Pred != ids["spouse"] {
		t.Fatalf("married → %s", married.Render(g))
	}
	play := topPath(t, d, "play in")
	if len(play) != 1 || play[0].Pred != ids["starring"] {
		t.Fatalf("play in → %s", play.Render(g))
	}
}

func TestMineFindsUnclePathAndSuppressesGenderNoise(t *testing.T) {
	g, sets, ids := minedFixture(t)
	d, _ := Mine(g, sets, MineOptions{MaxPathLen: 4, TopK: 3})
	uncle := topPath(t, d, "uncle of")
	want := Path{
		{Pred: ids["hasChild"], Forward: false},
		{Pred: ids["hasChild"], Forward: true},
		{Pred: ids["hasChild"], Forward: true},
	}
	if uncle.Key() != want.Key() {
		t.Fatalf("uncle of → %s (tf-idf failed to suppress hasGender noise)", uncle.Render(g))
	}
	// The hasGender·hasGender⁻¹ path occurs in every phrase's path set, so
	// idf drives it to zero; it must not be the top entry anywhere.
	for _, p := range d.Phrases() {
		top := p.Entries[0].Path
		if len(top) == 2 && top[0].Pred == ids["hasGender"] && top[1].Pred == ids["hasGender"] {
			t.Fatalf("phrase %q top path is the gender noise path", p.Text)
		}
	}
}

func TestMineNormalizesScores(t *testing.T) {
	g, sets, _ := minedFixture(t)
	d, _ := Mine(g, sets, MineOptions{})
	for _, p := range d.Phrases() {
		if p.Entries[0].Score != 1.0 {
			t.Fatalf("phrase %q top score %f, want 1.0", p.Text, p.Entries[0].Score)
		}
		for i := 1; i < len(p.Entries); i++ {
			if p.Entries[i].Score > p.Entries[i-1].Score {
				t.Fatalf("phrase %q entries not sorted", p.Text)
			}
			if p.Entries[i].Score <= 0 || p.Entries[i].Score > 1 {
				t.Fatalf("phrase %q score %f out of range", p.Text, p.Entries[i].Score)
			}
		}
	}
}

func TestMineThetaRestrictsPaths(t *testing.T) {
	g, sets, _ := minedFixture(t)
	d2, _ := Mine(g, sets, MineOptions{MaxPathLen: 2})
	// θ=2 cannot represent the length-3 uncle path.
	if p, ok := d2.Lookup("uncle of"); ok {
		for _, e := range p.Entries {
			if len(e.Path) > 2 {
				t.Fatalf("θ=2 produced path of length %d", len(e.Path))
			}
		}
	}
}

func TestMineUnidirectionalMatchesBidirectional(t *testing.T) {
	g, sets, _ := minedFixture(t)
	a, _ := Mine(g, sets, MineOptions{})
	b, _ := Mine(g, sets, MineOptions{Unidirectional: true})
	if a.Len() != b.Len() {
		t.Fatalf("phrase counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, pa := range a.Phrases() {
		pb, ok := b.LookupLemmas(pa.Lemmas)
		if !ok {
			t.Fatalf("phrase %q missing from unidirectional mine", pa.Text)
		}
		if pa.Entries[0].Path.Key() != pb.Entries[0].Path.Key() {
			t.Fatalf("top paths differ for %q: %s vs %s",
				pa.Text, pa.Entries[0].Path.Render(g), pb.Entries[0].Path.Render(g))
		}
	}
}

func TestDictionaryLookupIsLemmaNormalized(t *testing.T) {
	g, sets, _ := minedFixture(t)
	d, _ := Mine(g, sets, MineOptions{})
	_ = g
	// "was married to" and "be married to" share the lemma key.
	if _, ok := d.Lookup("was married to"); !ok {
		t.Fatal("lemma-normalized lookup failed")
	}
	if _, ok := d.Lookup("is married to"); !ok {
		t.Fatal("lemma-normalized lookup failed for present tense")
	}
	if _, ok := d.Lookup("never seen phrase"); ok {
		t.Fatal("unexpected hit")
	}
}

// phrasesWithWord returns every phrase having the word w lemmatizes to.
func phrasesWithWord(d *Dictionary, w string) []*Phrase {
	id, ok := d.Probe(w)
	if !ok {
		return nil
	}
	var out []*Phrase
	for _, s := range d.SlotsWith(id) {
		p, _ := d.Slot(s)
		out = append(out, p)
	}
	return out
}

func TestInvertedIndex(t *testing.T) {
	g, sets, _ := minedFixture(t)
	d, _ := Mine(g, sets, MineOptions{})
	_ = g
	hits := phrasesWithWord(d, "married")
	if len(hits) != 1 || hits[0].Text != "be married to" {
		t.Fatalf("phrases with married = %v", hits)
	}
	// Surface forms are lemmatized before probing.
	hits = phrasesWithWord(d, "plays")
	if len(hits) != 1 || hits[0].Text != "play in" {
		t.Fatalf("phrases with plays = %v", hits)
	}
	if got := phrasesWithWord(d, "zzz"); len(got) != 0 {
		t.Fatalf("unexpected hits: %v", got)
	}
}

// TestAddReplacesInPlace: an Add whose key is in the dictionary (the
// Maintainer's rebuild meets "was married to" after "be married to")
// replaces the phrase in its slot and lists it under its words once.
func TestAddReplacesInPlace(t *testing.T) {
	d := New()
	d.Add("be married to", []Entry{{Score: 1}})
	play := d.Add("play in", []Entry{{Score: 1}})
	married := d.Add("was married to", []Entry{{Score: 2}})
	if got := d.Phrases(); len(got) != 2 || got[0] != married || got[1] != play {
		t.Fatalf("Phrases() = %v, want [was married to, play in]", got)
	}
	if p, _ := d.Lookup("is married to"); p != married {
		t.Fatalf("Lookup = %v, want the replacing phrase", p)
	}
	for _, w := range []string{"be", "marry", "to"} {
		if got := phrasesWithWord(d, w); len(got) != 1 || got[0] != married {
			t.Errorf("phrases with %s = %v, want the replacing phrase once", w, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, sets, _ := minedFixture(t)
	d, _ := Mine(g, sets, MineOptions{})
	var buf bytes.Buffer
	if err := d.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip: %d phrases, want %d", d2.Len(), d.Len())
	}
	for _, p := range d.Phrases() {
		q, ok := d2.LookupLemmas(p.Lemmas)
		if !ok {
			t.Fatalf("phrase %q lost in round trip", p.Text)
		}
		if len(q.Entries) != len(p.Entries) {
			t.Fatalf("phrase %q entries %d, want %d", p.Text, len(q.Entries), len(p.Entries))
		}
		for i := range p.Entries {
			if p.Entries[i].Path.Key() != q.Entries[i].Path.Key() {
				t.Fatalf("phrase %q entry %d path changed", p.Text, i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	g := store.New()
	g.Intern(rdf.Ontology("p"))
	cases := []string{
		"only two\tfields",
		"phrase\tnotanumber\t+http://dbpedia.org/ontology/p",
		"phrase\t0.5\tnosign",
		"phrase\t0.5\t+http://unknown/pred",
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c), g); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
	// Comments and blank lines are fine.
	if d, err := Decode(strings.NewReader("# comment\n\n"), g); err != nil || d.Len() != 0 {
		t.Errorf("comment-only decode: %v, %d", err, d.Len())
	}
}
