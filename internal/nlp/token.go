// Package nlp provides the natural-language pipeline the paper delegates to
// the Stanford parser (§4.1): tokenization, part-of-speech tagging,
// lemmatization, and a deterministic rule-based dependency parser that
// emits Stanford-style typed dependencies for interrogative English.
//
// The parser is a substitute substrate, not a general-purpose parser: it
// covers the constructions the paper's workload exercises — wh-questions,
// imperative "Give me …" requests, copular questions, passives, relative
// clauses, preposition fronting and stranding — and is deterministic so
// experiments are reproducible. Downstream code (Algorithm 2, the argument
// rules of §4.1.2) consumes only the tree shape and edge labels, which is
// precisely what this package guarantees.
package nlp

import (
	"strings"
	"unicode"
)

// Token is one word of the input question.
type Token struct {
	Index int    // 0-based position in the sentence
	Text  string // original surface form
	Lower string // lowercased surface form
	Lemma string // dictionary form (see Lemma)
	Tag   string // Penn-Treebank-style POS tag
}

// IsWh reports whether the token is an interrogative word (who, what,
// which, where, when, how, whom, whose). The paper treats wh-words as
// unconstrained vertices that match every entity and class (§2.2).
func (t Token) IsWh() bool {
	switch t.Lower {
	case "who", "what", "which", "where", "when", "how", "whom", "whose":
		return true
	}
	return false
}

// IsVerbTag reports whether the tag is any verb tag.
func IsVerbTag(tag string) bool { return strings.HasPrefix(tag, "VB") }

// IsNounTag reports whether the tag is any noun tag.
func IsNounTag(tag string) bool { return strings.HasPrefix(tag, "NN") }

// Tokenize splits a question into tokens. Punctuation is dropped except
// that it delimits words; possessive "'s" becomes its own token (tag POS);
// hyphenated words are kept whole.
func Tokenize(s string) []Token {
	var buf [32]Token
	toks := appendTokens(buf[:0], s)
	if len(toks) == 0 {
		return nil
	}
	return append(make([]Token, 0, len(toks)), toks...)
}

// appendTokens appends the tokens of s to toks. A word is a run of bytes
// of s, so a token's Text is a slice of s and its Lower allocates only for
// a word with a capital: every rune a word keeps is valid UTF-8 and spells
// itself, and any other rune ends the word, U+FFFD for a byte that is not
// UTF-8 among them.
func appendTokens(toks []Token, s string) []Token {
	start := -1 // the first byte of the word being read, or -1
	for i, r := range s {
		// Hyphens stay inside words, and dots inside abbreviations like
		// "U.S." or "J.F.", so entity mentions survive.
		keep := unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '-' ||
			r == '.' && start >= 0 && isAbbrevSoFar(s[start:i])
		switch {
		case keep && start < 0:
			start = i
		case !keep && start >= 0:
			toks = appendWord(toks, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = appendWord(toks, s[start:])
	}
	// Strip a sentence-final period from the last token ("MI6." → "MI6")
	// while preserving internal abbreviation dots ("John F. Kennedy").
	if n := len(toks); n > 0 {
		t := &toks[n-1]
		if body, ok := strings.CutSuffix(t.Text, "."); ok && !strings.Contains(body, ".") {
			t.Text, t.Lower = body, t.Lower[:len(t.Lower)-1]
		}
	}
	return toks
}

// appendWord appends the tokens of word w, splitting off a possessive
// "'s" and the "n't" of a contraction. Only 'S' and 's' lower to 's', and
// so on for the other letters, so the suffixes are tested on w's bytes.
func appendWord(toks []Token, w string) []Token {
	n := len(w)
	switch {
	case n > 2 && w[n-2] == '\'' && (w[n-1] == 's' || w[n-1] == 'S'):
		return appendToken(appendToken(toks, w[:n-2]), w[n-2:])
	case n > 3 && (w[n-3] == 'n' || w[n-3] == 'N') && w[n-2] == '\'' && (w[n-1] == 't' || w[n-1] == 'T'):
		return appendToken(appendToken(toks, w[:n-3]), "not")
	}
	return appendToken(toks, w)
}

// appendToken appends w as the next token.
func appendToken(toks []Token, w string) []Token {
	return append(toks, Token{Index: len(toks), Text: w, Lower: strings.ToLower(w)})
}

// isAbbrevSoFar reports whether the partial word looks like an
// abbreviation in progress (single letters separated by dots, or an
// uppercase run such as "U.S").
func isAbbrevSoFar(w string) bool {
	for _, r := range w {
		if r != '.' && !unicode.IsUpper(r) && !unicode.IsDigit(r) {
			return false
		}
	}
	return w != ""
}
