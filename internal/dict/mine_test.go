package dict

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

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
	if len(a.slots) != len(b.slots) {
		t.Fatalf("phrase counts differ: %d vs %d", len(a.slots), len(b.slots))
	}
	for _, pa := range a.Phrases() {
		pb, ok := b.lookup(strings.Join(pa.Lemmas, " "))
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
	if len(d2.Phrases()) != len(d.Phrases()) {
		t.Fatalf("round trip: %d phrases, want %d", len(d2.Phrases()), len(d.Phrases()))
	}
	for _, p := range d.Phrases() {
		q, ok := d2.lookup(strings.Join(p.Lemmas, " "))
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
			if p.Entries[i].Score != q.Entries[i].Score {
				t.Fatalf("phrase %q entry %d score %v decodes as %v", p.Text, i, p.Entries[i].Score, q.Entries[i].Score)
			}
		}
	}
}

// TestQuickOnGrid: a score on the grid renders to six decimals and parses
// back to itself, lies within half a unit of the sixth decimal of the
// score it came from, and is never below minScore.
func TestQuickOnGrid(t *testing.T) {
	onGridHolds := func(x float64) bool {
		y := onGrid(x)
		back, err := strconv.ParseFloat(strconv.FormatFloat(y, 'f', 6, 64), 64)
		return err == nil && back == y && y >= minScore && (y == minScore || math.Abs(y-x) <= 5e-7+1e-15)
	}
	for _, x := range []float64{0, 1, 5e-7, 4.9e-7, 1e-6, 0.1234565, 0.9999995} {
		if !onGridHolds(x) {
			t.Fatalf("onGrid(%v) = %v", x, onGrid(x))
		}
	}
	f := func(bits uint64) bool { return onGridHolds(float64(bits>>11) / (1 << 53)) } // [0, 1)
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	g := store.New()
	g.Intern(rdf.Ontology("p"))
	const p = "+http://dbpedia.org/ontology/p"
	cases := []struct{ in, want string }{
		{"only two\tfields", "line 1: want 3 tab-separated fields, got 2"},
		{"phrase\tnotanumber\t" + p, "line 1: bad score"},
		{"phrase\t0.5\tnosign", `line 1: bad step "nosign"`},
		{"phrase\t0.5\t+http://unknown/pred", `line 1: unknown predicate "http://unknown/pred"`},
		// What Mine cannot produce.
		{"phrase\tNaN\t" + p, "line 1: score NaN is not in [1e-06, 1]"},
		{"phrase\t+Inf\t" + p, "line 1: score +Inf is not in [1e-06, 1]"},
		{"phrase\t-Inf\t" + p, "line 1: score -Inf is not in [1e-06, 1]"},
		{"phrase\t-1\t" + p, "line 1: score -1 is not in [1e-06, 1]"},
		{"phrase\t0\t" + p, "line 1: score 0 is not in [1e-06, 1]"},
		{"phrase\t1e308\t" + p, "line 1: score 1e308 is not in [1e-06, 1]"},
		{"phrase\t1.000001\t" + p, "line 1: score 1.000001 is not in [1e-06, 1]"},
		{"phrase\t0.0000004\t" + p, "line 1: score 0.0000004 is not in [1e-06, 1]"},
		{"\t0.5\t" + p, `line 1: phrase "" has no words`},
		{"# comment\n  \t0.5\t" + p, `line 2: phrase "  " has no words`},
		{"phrase\t0.5\t" + strings.Repeat(p+",", 4) + p, "line 1: path of 5 steps, at most 4"},
		{"phrase\t0.5\t" + p + "\nother\t1\t" + p + "\nphrase\t0.25\t" + p,
			`line 3: path ` + p + ` of phrase "phrase" is on line 1 too`},
		{"is married to\t0.5\t" + p + "\nbe married to\t1\t" + p,
			`line 2: phrase "be married to" has the lemma key "be marry to" of phrase "is married to" (line 1)`},
	}
	for _, c := range cases {
		_, err := Decode(strings.NewReader(c.in), g)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Decode(%q) = %v, want an error naming %q", c.in, err, c.want)
		}
	}
	// Comments and blank lines are fine; so are one phrase's paths on
	// lines apart, a path at θ's bound, and the bounds of the score.
	if d, err := Decode(strings.NewReader("# comment\n\n   # indented comment\n"), g); err != nil || len(d.Phrases()) != 0 {
		t.Errorf("comment-only decode: %v, %d", err, len(d.Phrases()))
	}
	ok := "phrase\t1\t" + p + "\nother\t0.000001\t" + p + "\nphrase\t0.5\t" + strings.Repeat(p+",", 3) + p
	if d, err := Decode(strings.NewReader(ok), g); err != nil || len(d.Phrases()) != 2 {
		t.Errorf("Decode(%q) = %v, %v", ok, d, err)
	}
}

// FuzzDecodeDictionary: Decode never panics, a refusal names its line,
// and what it accepts re-encodes to a file that decodes to the same
// dictionary — the same phrases, paths and order — and re-encodes to the
// same bytes. Each step's predicate resolves through the graph's term
// index (store.Graph.LookupIRI), whose IRIs share their values with
// literals and blank nodes, so the fuzzer drives the index's probes too.
func FuzzDecodeDictionary(f *testing.F) {
	g, sets, _ := minedFixture(f)
	for i := range 64 {
		v := fmt.Sprintf("http://e/p%d", i)
		g.Intern(rdf.NewIRI(v))
		g.Intern(rdf.NewLiteral(v))
		g.Intern(rdf.NewBlank(v))
	}
	mined, _ := Mine(g, sets, MineOptions{})
	var buf bytes.Buffer
	if err := mined.Encode(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("be married to\t1\t+http://e/p1,-http://e/p2\nwed\t0.25\t-http://e/p63\n# c\n")
	f.Add("x\t1e-6\t+http://e/p0\nx\t0x1p-1\t+http://e/p0,+http://e/p0\n")
	f.Add("\t1\t+http://e/p0")
	f.Fuzz(func(t *testing.T, in string) {
		d, err := Decode(strings.NewReader(in), g)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "dict: line ") && !strings.Contains(err.Error(), "too long") {
				t.Fatalf("refusal names no line: %v", err)
			}
			return
		}
		var enc bytes.Buffer
		if err := d.Encode(&enc, g); err != nil {
			t.Fatal(err)
		}
		d2, err := Decode(bytes.NewReader(enc.Bytes()), g)
		if err != nil {
			t.Fatalf("the re-encoded dictionary is refused: %v\n%s", err, enc.String())
		}
		ps, ps2 := d.Phrases(), d2.Phrases()
		if len(ps) != len(ps2) {
			t.Fatalf("%d phrases re-decode as %d", len(ps), len(ps2))
		}
		for i, p := range ps {
			q := ps2[i]
			if p.Text != q.Text || len(p.Entries) != len(q.Entries) {
				t.Fatalf("phrase %d: %q with %d entries re-decodes as %q with %d", i, p.Text, len(p.Entries), q.Text, len(q.Entries))
			}
			for j, e := range p.Entries {
				if e.Path.Key() != q.Entries[j].Path.Key() || math.Abs(e.Score-q.Entries[j].Score) > 5e-7 {
					t.Fatalf("phrase %q entry %d: %v re-decodes as %v", p.Text, j, e, q.Entries[j])
				}
			}
		}
		var enc2 bytes.Buffer
		if err := d2.Encode(&enc2, g); err != nil {
			t.Fatal(err)
		}
		if enc.String() != enc2.String() {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc.String(), enc2.String())
		}
	})
}
