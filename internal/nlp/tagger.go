package nlp

import (
	"strings"
	"unicode"
)

// Tag assigns Penn-style POS tags and lemmas to a token slice in place.
// The tagger is a lexicon + morphology + context cascade:
//
//  1. closed-class lexicon lookup,
//  2. proper-noun detection by capitalization (position-aware: a
//     sentence-initial capital is only NNP if also in no other class),
//  3. morphological guessing for open-class words,
//  4. contextual repair passes (e.g. "that" as WDT when introducing a
//     relative clause; "which" as WDT before a noun).
func Tag(toks []Token) []Token {
	for i := range toks {
		toks[i].Tag = tagOne(toks, i)
	}
	contextualRepair(toks)
	for i := range toks {
		toks[i].Lemma = Lemma(toks[i].Lower, toks[i].Tag)
	}
	return toks
}

func tagOne(toks []Token, i int) string {
	t := toks[i]
	// Numbers.
	if isNumeric(t.Text) {
		return "CD"
	}
	// Possessive clitic (split off by the tokenizer).
	if t.Lower == "'s" || t.Lower == "'" {
		return "POS"
	}
	// Capitalized non-initial word → proper noun, even if in the lexicon
	// ("Jordan", "Philadelphia"). The exception: sentence-initial words go
	// through the lexicon first.
	capitalized := isCapitalized(t.Text)
	if capitalized && i > 0 {
		return "NNP"
	}
	if tag, ok := wordTags[t.Lower]; ok {
		return tag
	}
	if capitalized {
		return "NNP"
	}
	return guessTag(t.Lower)
}

// guessTag applies suffix morphology to unknown open-class words, after
// consulting the irregular-form tables ("wrote" → VBD, "children" → NNS).
func guessTag(w string) string {
	if _, ok := irregularVerbLemmas[w]; ok {
		if strings.HasSuffix(w, "ing") {
			return "VBG"
		}
		return "VBD"
	}
	if _, ok := irregularNounLemmas[w]; ok {
		return "NNS"
	}
	switch {
	case strings.HasSuffix(w, "ing") && len(w) > 4:
		return "VBG"
	case strings.HasSuffix(w, "ed") && len(w) > 3:
		return "VBD"
	case strings.HasSuffix(w, "est") && len(w) > 4:
		return "JJS"
	case strings.HasSuffix(w, "ous") || strings.HasSuffix(w, "ful") ||
		strings.HasSuffix(w, "ive") || strings.HasSuffix(w, "able") && len(w) > 5:
		return "JJ"
	case strings.HasSuffix(w, "ly"):
		return "RB"
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && len(w) > 3:
		return "NNS"
	}
	return "NN"
}

func contextualRepair(toks []Token) {
	n := len(toks)
	for i := range toks {
		t := &toks[i]
		switch t.Lower {
		case "that", "who", "which", "whom":
			// Relative pronoun when it follows a noun and precedes a verb
			// group: "an actor that played in …".
			if i > 0 && IsNounTag(toks[i-1].Tag) && nextVerbish(toks, i+1) {
				if t.Lower == "that" || t.Lower == "which" {
					t.Tag = "WDT"
				} else {
					t.Tag = "WP"
				}
			} else if (t.Lower == "which" || t.Lower == "what") && i+1 < n &&
				(IsNounTag(toks[i+1].Tag) || toks[i+1].Tag == "JJ") {
				// Determiner reading before a noun: "which movies …".
				t.Tag = "WDT"
			}
		case "what":
			if i+1 < n && (IsNounTag(toks[i+1].Tag) || toks[i+1].Tag == "JJ") {
				t.Tag = "WDT"
			}
		}
		// A base-form lexicon verb after "did/do/does" stays VB; after a
		// noun phrase a present-tense reading is fine. But a lexicon VB at
		// position 0 of a non-imperative question is unusual; imperatives
		// keep VB.
		if t.Tag == "VBD" && i > 0 && toks[i-1].Lower == "to" {
			// "to marry" — infinitive; shouldn't normally happen since
			// lexicon stores base forms, but guessTag may produce VBD.
			t.Tag = "VB"
		}
		// "did … <base verb>" — ensure the base verb after an NP subject is
		// verbal even if the guesser said NN ("star", "flow").
		if t.Tag == "NN" || t.Tag == "NNS" {
			if hasAuxBefore(toks, i) && !nounContextAfterAux(toks, i) {
				t.Tag = "VB"
				if toks[i].Tag == "NNS" {
					t.Tag = "VBZ"
				}
			}
		}
		// Lexicon verbs in noun slots: "the birth name", "a star". A base
		// verb directly after a determiner, adjective, possessive or noun
		// is nominal — unless the do-support inversion pattern holds
		// ("did Antonio Banderas star in"), or the sentence is a
		// wh-subject question whose verb follows its subject NP directly
		// and no other verb precedes ("Which films star Antonio
		// Banderas?").
		if t.Tag == "VB" && i > 0 {
			switch toks[i-1].Tag {
			case "DT", "JJ", "JJS", "JJR", "PRP$", "POS":
				t.Tag = "NN"
			case "NN", "NNS", "NNP", "NNPS":
				if !hasAuxBefore(toks, i) && !(startsWithWh(toks) && !verbBefore(toks, i)) {
					t.Tag = "NN"
				}
			}
		}
		// Wh-subject present-tense verbs the guesser read as plural nouns:
		// "Who produces Orangina?" — an NNS right after a wh start whose
		// stem is a known verb is VBZ.
		if (t.Tag == "NNS" || t.Tag == "NN") && startsWithWh(toks) && !verbBefore(toks, i) && i >= 1 {
			if stem := Lemma(t.Lower, "VBZ"); stem != t.Lower && isKnownVerb(stem) {
				t.Tag = "VBZ"
			}
		}
	}
	// Second pass for verbs misread as nouns at clause ends:
	// "…did Antonio Banderas star in?" — final or preposition-preceding
	// word after an NNP run with an earlier "did/do/does".
	for i := n - 1; i >= 1; i-- {
		t := &toks[i]
		if (t.Tag == "NN" || t.Tag == "VBD") && hasDoAux(toks, i) && IsNounTag(toks[i-1].Tag) {
			if i == n-1 || toks[i+1].Tag == "IN" {
				if _, known := wordTags[t.Lower]; known || t.Tag == "VBD" || isKnownVerb(t.Lower) {
					t.Tag = "VB"
				}
			}
		}
	}
}

func startsWithWh(toks []Token) bool {
	return len(toks) > 0 && toks[0].IsWh()
}

func verbBefore(toks []Token, i int) bool {
	for j := 0; j < i; j++ {
		if IsVerbTag(toks[j].Tag) || toks[j].Tag == "MD" {
			return true
		}
	}
	return false
}

func isKnownVerb(w string) bool {
	tag, ok := wordTags[w]
	if ok && IsVerbTag(tag) {
		return true
	}
	if _, irr := irregularVerbLemmas[w]; irr {
		return true
	}
	return false
}

// nextVerbish reports whether a verb (possibly after an adverb) starts at i.
func nextVerbish(toks []Token, i int) bool {
	for ; i < len(toks); i++ {
		switch {
		case IsVerbTag(toks[i].Tag):
			return true
		case toks[i].Tag == "RB":
			continue
		default:
			// The word may still be an untagged-yet verb (repair runs
			// while later tags may be provisional); check the lexicon.
			if isKnownVerb(toks[i].Lower) {
				return true
			}
			return false
		}
	}
	return false
}

// hasAuxBefore reports whether a do-support auxiliary occurs before i with
// only NP-ish material between.
func hasAuxBefore(toks []Token, i int) bool {
	seenAux := false
	for j := 0; j < i; j++ {
		switch toks[j].Lower {
		case "do", "does", "did":
			seenAux = true
		}
	}
	if !seenAux {
		return false
	}
	// Everything between the aux and i must be nominal for i to be the
	// displaced main verb.
	aux := -1
	for j := 0; j < i; j++ {
		switch toks[j].Lower {
		case "do", "does", "did":
			aux = j
		}
	}
	for j := aux + 1; j < i; j++ {
		tag := toks[j].Tag
		if !IsNounTag(tag) && tag != "DT" && tag != "JJ" && tag != "PRP" && tag != "NNP" {
			return false
		}
	}
	return true
}

// nounContextAfterAux reports whether position i is better read as a noun
// even though an aux precedes (e.g. "did the actor marry the singer" — at
// "actor"). True when a determiner immediately precedes.
func nounContextAfterAux(toks []Token, i int) bool {
	return i > 0 && (toks[i-1].Tag == "DT" || toks[i-1].Tag == "JJ" || toks[i-1].Tag == "PRP$")
}

func hasDoAux(toks []Token, before int) bool {
	for j := 0; j < before; j++ {
		switch toks[j].Lower {
		case "do", "does", "did":
			return true
		}
	}
	return false
}

func isCapitalized(w string) bool {
	for _, r := range w {
		return unicode.IsUpper(r)
	}
	return false
}

func isNumeric(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		if !unicode.IsDigit(r) && r != '.' && r != ',' {
			return false
		}
	}
	return true
}
