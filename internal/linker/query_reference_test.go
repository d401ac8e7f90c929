package linker

import (
	"slices"
	"strings"
	"unicode"

	"gqa/internal/nlp"
)

// The mention tokeniser as it was before it split by hand into stack
// buffers, verbatim but for the names: strings.FieldsFunc, a lemma slice
// and two ID slices per mention. TestQueryMatchesReference compares the two
// on every mention the differential tests link, and the parent's k-way merge
// (merge_test.go) reads its mentions through it.

// refAppendTokens appends the tokens of s to dst: lowercased, split around
// every rune that is neither a letter nor a digit, stop words dropped.
func refAppendTokens(dst []string, s string) []string {
	for _, f := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		switch f {
		case "the", "a", "an", "of":
			continue
		}
		dst = append(dst, f)
	}
	return dst
}

// refQuery tokenises text; a text with no token gives nRaw == 0.
func (l *Linker) refQuery(text string) query {
	toks := sortedSet(refAppendTokens(nil, text))
	if len(toks) == 0 {
		return query{}
	}
	lems := make([]string, len(toks))
	for i, t := range toks {
		lems[i] = nlp.Lemma(t, "NNS")
	}
	lems = sortedSet(lems)
	return query{raw: l.refIDs(toks), lem: l.refIDs(lems), nRaw: len(toks), nLem: len(lems)}
}

// refIDs returns the sorted token IDs of the distinct tokens toks that the
// vocabulary knows.
func (l *Linker) refIDs(toks []string) []uint32 {
	out := make([]uint32, 0, len(toks))
	for _, t := range toks {
		if id, ok := l.vocab.lookup(t); ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
