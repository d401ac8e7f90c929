package nlp

import (
	"strings"
	"testing"
)

// FuzzParse: the parser must never panic and must always return either an
// error or a valid tree, for arbitrary input, and agree with the parent's
// parser (reference_test.go).
func FuzzParse(f *testing.F) {
	for _, q := range corpusQuestions[:30] {
		f.Add(q)
	}
	f.Add("")
	f.Add("?")
	f.Add("a b c d e f g h i j k l m n o p q r s t u v w x y z")
	f.Add("Who who who did did did in in in and and and?")
	f.Add("'s 's 's")
	f.Add("\x00\x01\x02")
	f.Add(staleSeed)
	f.Fuzz(func(t *testing.T, q string) {
		y, err := Parse(q)
		if err != nil {
			return
		}
		if err := y.Validate(); err != nil {
			t.Fatalf("Parse(%q) produced invalid tree: %v", q, err)
		}
		// Token count equals node count.
		if len(Tokenize(q)) != y.Size() {
			t.Fatalf("Parse(%q): %d tokens, %d nodes", q, len(Tokenize(q)), y.Size())
		}
		if d, _, bad := differ(q); bad {
			t.Fatalf("%q: %s", q, d)
		}
	})
}

// FuzzLemma: lemmatization must terminate and produce non-empty output for
// non-empty input, for every tag.
func FuzzLemma(f *testing.F) {
	f.Add("married", "VBN")
	f.Add("children", "NNS")
	f.Add("s", "VBZ")
	f.Add("ss", "NNS")
	f.Fuzz(func(t *testing.T, w, tag string) {
		got := Lemma(strings.ToLower(w), tag)
		if w != "" && got == "" && strings.TrimSpace(w) != "" {
			// A lemma may legitimately be empty only for pathological
			// suffix-only inputs; flag anything else.
			if len(w) > 4 {
				t.Fatalf("Lemma(%q, %q) = empty", w, tag)
			}
		}
	})
}
