package nlp

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

// live returns the entries of node i's Children in the parent's tree y
// whose Head is i, without repeats: what its attach listed, minus the
// children it re-attached elsewhere (and the root, which it reset).
func live(y *DepTree, i int) []int {
	var out []int
	for _, c := range y.Nodes[i].Children {
		if y.Nodes[c].Head == i && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// walksAgree describes where Subtree, ResolveCoref or Validate differ from
// the parent's on y, or returns "". Validate is compared only on a tree
// whose Children are its heads read backwards; on any other the new
// Validate must refuse it.
func walksAgree(y *DepTree, stale bool) string {
	for i := range y.Nodes {
		if got, want := y.Subtree(i), y.refSubtree(i); !slices.Equal(got, want) {
			return fmt.Sprintf("Subtree(%d) = %v, parent %v", i, got, want)
		}
	}
	if got, want := ResolveCoref(y), refResolveCoref(y); !maps.Equal(got, want) {
		return fmt.Sprintf("ResolveCoref = %v, parent %v", got, want)
	}
	err, refErr := y.Validate(), y.refValidate()
	switch {
	case stale && err == nil:
		return "Validate accepts a tree with a stale child"
	case !stale && (err == nil) != (refErr == nil):
		return fmt.Sprintf("Validate: %v, parent %v", err, refErr)
	}
	return ""
}

// differ describes how Tokenize and Parse differ from the parent's on q, or
// returns false; stale reports whether the parent's tree listed a child
// under a head that is not its own. Tokens are compared with ==, and trees
// node by node on Token, Head and Rel with ==, and on Children against the
// parent's with its stale entries dropped. Subtree, ResolveCoref and
// Validate are compared on both trees.
func differ(q string) (diff string, stale, bad bool) {
	if got, want := Tokenize(q), refTokenize(q); !slices.Equal(got, want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("Tokenize = %v, parent %v", got, want), false, true
	}
	y, err := Parse(q)
	ref, refErr := refParse(q)
	if (err == nil) != (refErr == nil) {
		return fmt.Sprintf("Parse error %v, parent %v", err, refErr), false, true
	}
	if err != nil {
		return "", false, false
	}
	if y.Root != ref.Root || len(y.Nodes) != len(ref.Nodes) {
		return fmt.Sprintf("root %d of %d nodes, parent %d of %d", y.Root, len(y.Nodes), ref.Root, len(ref.Nodes)), false, true
	}
	for i := range y.Nodes {
		n, r := &y.Nodes[i], &ref.Nodes[i]
		want := live(ref, i)
		stale = stale || len(want) != len(r.Children)
		if n.Token != r.Token || n.Head != r.Head || n.Rel != r.Rel || !slices.Equal(n.Children, want) ||
			cap(n.Children) != len(n.Children) || (n.Children == nil) != (len(want) == 0) {
			return fmt.Sprintf("node %d: %+v, parent %+v (live children %v)", i, *n, *r, want), stale, true
		}
	}
	if d := walksAgree(y, false); d != "" {
		return d, stale, true
	}
	if d := walksAgree(ref, stale); d != "" {
		return "on the parent's tree: " + d, stale, true
	}
	return "", stale, false
}

// TestParseMatchesReference: on the robustness corpus and the seed that
// met a stale child, the tokenizer and parser agree with the parent's.
func TestParseMatchesReference(t *testing.T) {
	stale := 0
	for _, q := range append(slices.Clone(corpusQuestions), staleSeed) {
		d, s, bad := differ(q)
		if bad {
			t.Errorf("%q: %s", q, d)
		}
		if s {
			stale++
		}
	}
	if stale == 0 {
		t.Errorf("%q no longer meets a stale child in the parent's tree", staleSeed)
	}
}

// staleSeed is the input FuzzParse found whose parent tree lists root "00"
// (node 2) as a child of "of" (node 1), whose head is "00": a children
// cycle 2→1→2 that the parent's Validate accepted.
const staleSeed = "wAs of 00"

// TestParseFillsChildrenFromHeads pins the stale child the slab removes.
func TestParseFillsChildrenFromHeads(t *testing.T) {
	ref, err := refParse(staleSeed)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Root != 2 || ref.Nodes[1].Head != 2 || !slices.Equal(ref.Nodes[1].Children, []int{2}) {
		t.Fatalf("the parent's tree is no longer the one this test is for:\n%s%v", treeString(ref), ref.Nodes[1].Children)
	}
	if ref.refValidate() != nil {
		t.Fatal("the parent's Validate refuses its own tree")
	}
	if ref.Validate() == nil {
		t.Fatal("Validate accepts a children cycle")
	}
	y, err := Parse(staleSeed)
	if err != nil {
		t.Fatal(err)
	}
	if y.Nodes[1].Children != nil || !slices.Equal(y.Nodes[2].Children, []int{0, 1}) {
		t.Fatalf("children %v %v %v", y.Nodes[0].Children, y.Nodes[1].Children, y.Nodes[2].Children)
	}
}

// quickPieces are the words random questions are drawn from: the parser's
// constructions, capitals ASCII and not (U+0130 and U+212A lower to ASCII
// letters), possessives and contractions in both cases, abbreviations, a
// word with a final period, and bytes that are not UTF-8.
var quickPieces = []string{
	"who", "Who", "WHO", "what", "which", "Which", "where", "when", "how", "whom", "whose",
	"is", "was", "wAs", "are", "did", "does", "do", "be", "been",
	"the", "a", "an", "all", "me", "give", "Give", "list",
	"of", "in", "by", "to", "and", "that", "at", "for",
	"married", "played", "born", "directed", "starring", "founded", "live", "lives", "died",
	"actor", "actors", "city", "cities", "film", "films", "wife", "mayor", "people", "companies",
	"Berlin", "Philadelphia", "Antonio", "Banderas", "Über", "İstanbul", "Kelvin", "Élysée",
	"Merkel's", "MERKEL'S", "it's", "don't", "DON'T", "isn't", "Can'T",
	"U.S.", "J.F.", "U.S", "St.", "MI6.", "No.1", "co-op", "-", "'", "'s",
	"00", "1990", "12345", "3rd",
	"?", ".", ",", "!", "\xff", "\xc3", "a\x80b", "\xef\xbf\xbd", "\t",
}

// quickShapes counts what the random questions met that the rewrite has
// a case for.
type quickShapes struct {
	capital, possessive, negation, abbrev, finalPeriod, nonASCIICapital, invalid, stale int
}

// shapesOf adds to st what q meets.
func (st *quickShapes) add(q string, stale bool) {
	toks := refTokenize(q)
	for i, tk := range toks {
		switch {
		case tk.Lower == "'s":
			st.possessive++
		case tk.Text == "not" && i > 0 && strings.Contains(strings.ToLower(q), "n't"):
			st.negation++
		case tk.Text != tk.Lower:
			st.capital++
		}
		if strings.Contains(tk.Text, ".") {
			st.abbrev++
		}
		for _, r := range tk.Text {
			if r >= utf8.RuneSelf && unicode.IsUpper(r) {
				st.nonASCIICapital++
			}
		}
	}
	if n := len(toks); n > 0 {
		last := toks[n-1].Text
		if at := strings.LastIndex(q, last); at >= 0 && strings.HasPrefix(q[at+len(last):], ".") && !strings.HasSuffix(last, ".") {
			st.finalPeriod++
		}
	}
	if !utf8.ValidString(q) && len(toks) > 0 {
		st.invalid++
	}
	if stale {
		st.stale++
	}
}

// randomQuestion joins two to nine pieces, mostly with spaces, sometimes
// with nothing (so pieces fuse into one word), and sometimes ends with a
// question mark or a period.
func randomQuestion(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		if i > 0 && rng.Intn(6) > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(quickPieces[rng.Intn(len(quickPieces))])
	}
	switch rng.Intn(3) {
	case 0:
		b.WriteByte('?')
	case 1:
		b.WriteByte('.')
	}
	return b.String()
}

// TestQuickParseMatchesReference: on random questions the tokenizer, the
// parser, Subtree, ResolveCoref and Validate agree with the parent's. The
// property fails unless it meets every shape quickShapes counts.
func TestQuickParseMatchesReference(t *testing.T) {
	var st quickShapes
	prop := func(seed int64) bool {
		q := randomQuestion(rand.New(rand.NewSource(seed)))
		d, stale, bad := differ(q)
		if bad {
			t.Logf("%q: %s", q, d)
			return false
		}
		st.add(q, stale)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(st)
	for i := range v.NumField() {
		if v.Field(i).Int() == 0 {
			t.Errorf("the property never met a %s: %+v", v.Type().Field(i).Name, st)
		}
	}
	t.Logf("%+v", st)
}
