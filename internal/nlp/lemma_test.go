package nlp

import (
	"reflect"
	"strings"
	"testing"
)

func TestLemmaVerbs(t *testing.T) {
	cases := []struct{ in, tag, want string }{
		{"was", "VBD", "be"},
		{"were", "VBD", "be"},
		{"is", "VBZ", "be"},
		{"married", "VBN", "marry"},
		{"played", "VBD", "play"},
		{"starred", "VBD", "star"},
		{"starring", "VBG", "star"},
		{"created", "VBD", "create"},
		{"produced", "VBN", "produce"},
		{"directed", "VBN", "direct"},
		{"developed", "VBD", "develop"},
		{"founded", "VBD", "found"},
		{"died", "VBD", "die"},
		{"born", "VBN", "bear"},
		{"wrote", "VBD", "write"},
		{"flows", "VBZ", "flow"},
		{"goes", "VBZ", "go"},
		{"gives", "VBZ", "give"},
		{"connects", "VBZ", "connect"},
		{"buried", "VBN", "bury"},
		{"succeeded", "VBD", "succeed"},
		{"located", "VBN", "locate"},
		{"operated", "VBN", "operate"},
		{"named", "VBN", "name"},
		{"passes", "VBZ", "pass"},
		{"watches", "VBZ", "watch"},
		{"studies", "VBZ", "study"},
	}
	for _, c := range cases {
		if got := Lemma(c.in, c.tag); got != c.want {
			t.Errorf("Lemma(%q, %s) = %q, want %q", c.in, c.tag, got, c.want)
		}
	}
}

func TestLemmaNouns(t *testing.T) {
	cases := []struct{ in, tag, want string }{
		{"movies", "NNS", "movie"},
		{"cities", "NNS", "city"},
		{"countries", "NNS", "country"},
		{"people", "NNS", "person"},
		{"children", "NNS", "child"},
		{"members", "NNS", "member"},
		{"companies", "NNS", "company"},
		{"wives", "NNS", "wife"},
		{"glass", "NN", "glass"},
		{"bus", "NN", "bus"},
		{"mayor", "NN", "mayor"},
	}
	for _, c := range cases {
		if got := Lemma(c.in, c.tag); got != c.want {
			t.Errorf("Lemma(%q, %s) = %q, want %q", c.in, c.tag, got, c.want)
		}
	}
}

func TestLemmaLeavesOthersAlone(t *testing.T) {
	for _, w := range []string{"of", "the", "berlin", "tall"} {
		if got := Lemma(w, "IN"); got != w {
			t.Errorf("Lemma(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestLemmatizePhrase(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"was married to", []string{"be", "marry", "to"}},
		{"be married to", []string{"be", "marry", "to"}},
		{"played in", []string{"play", "in"}},
		{"star in", []string{"star", "in"}},
		{"is the mayor of", []string{"be", "the", "mayor", "of"}},
		{"uncle of", []string{"uncle", "of"}},
	}
	for _, c := range cases {
		if got := LemmatizePhrase(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("LemmatizePhrase(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLemmaIdempotentOnBaseForms(t *testing.T) {
	for _, w := range []string{"marry", "play", "star", "create", "flow", "connect", "be", "do", "have"} {
		if got := Lemma(w, "VB"); got != w {
			t.Errorf("Lemma(%q, VB) = %q, want fixed point", w, got)
		}
	}
}

// TestUntaggedLemmaTwice pins whether lemmatizing an untagged lemma again
// changes it: Lemma(ToLower(Lemma(x, "")), "") == Lemma(x, ""). It does not
// always hold — a lemma can still end in a suffix the untagged lemmatizer
// strips, or be an irregular form of another verb — so Algorithm 2's probe
// key (core.FindEmbeddings, dict.Dictionary.Probe) keeps its second
// application. The last rows are counter-examples: "ChildrenS" is the one
// a fuzz pass over the equality finds first, "founded" and "released" are
// words of the question corpus.
func TestUntaggedLemmaTwice(t *testing.T) {
	for _, c := range []struct {
		x, once, twice string
	}{
		{"married", "marry", "marry"},
		{"Plays", "play", "play"},
		{"cities", "city", "city"},
		{"was", "be", "be"},
		{"ChildrenS", "children", "child"},
		{"things", "thing", "th"},
		{"beings", "being", "be"},
		{"buildings", "building", "build"},
		{"founded", "found", "find"},
		{"released", "releas", "relea"},
	} {
		once := Lemma(strings.ToLower(c.x), "")
		twice := Lemma(strings.ToLower(once), "")
		if once != c.once || twice != c.twice {
			t.Errorf("%q lemmatizes to %q, then to %q; want %q, then %q", c.x, once, twice, c.once, c.twice)
		}
	}
}
