package core

import (
	"sort"
	"strings"

	"gqa/internal/dict"
	"gqa/internal/nlp"
)

// refDict is the dictionary's word index as it was before word IDs: phrase
// keys per lemma word in insertion order, and a second map from key to
// phrase. It holds the *dict.Phrase values the dictionary under test
// returned, so the reference and FindEmbeddings can be compared with ==.
type refDict struct {
	phrases  map[string]*dict.Phrase // lemma key → phrase
	inverted map[string][]string     // lemma word → phrase keys containing it
	ordered  []string                // insertion-ordered keys, for determinism
}

func newRefDict() *refDict {
	return &refDict{
		phrases:  make(map[string]*dict.Phrase),
		inverted: make(map[string][]string),
	}
}

// add mirrors dict.Dictionary.Add for the phrase p it returned.
func (d *refDict) add(p *dict.Phrase) {
	key := strings.Join(p.Lemmas, " ")
	if _, exists := d.phrases[key]; !exists {
		d.ordered = append(d.ordered, key)
		for _, w := range refDedupeWords(p.Lemmas) {
			d.inverted[w] = append(d.inverted[w], key)
		}
	}
	d.phrases[key] = p
}

// refDictOf rebuilds the old index of d from its phrases in insertion
// order, which is the order Add met their keys first in.
func refDictOf(d *dict.Dictionary) *refDict {
	r := newRefDict()
	for _, p := range d.Phrases() {
		r.add(p)
	}
	return r
}

func refDedupeWords(ws []string) []string {
	seen := make(map[string]bool, len(ws))
	var out []string
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// PhrasesWithWord returns every phrase containing the lemma w — the
// inverted-index probe of Algorithm 2 (steps 1–2).
func (d *refDict) PhrasesWithWord(w string) []*dict.Phrase {
	keys := d.inverted[nlp.Lemma(strings.ToLower(w), "")]
	out := make([]*dict.Phrase, 0, len(keys))
	for _, k := range keys {
		out = append(out, d.phrases[k])
	}
	return out
}

// The reference below is Algorithm 2 as it was before word IDs, kept as it
// was but for its names and the dictionary it reads: every candidate phrase
// of a root probed, want/need maps per probe, every node re-lemmatised.

func refFindEmbeddings(y *nlp.DepTree, d *refDict) []embeddingCandidate {
	var found []embeddingCandidate
	for root := 0; root < y.Size(); root++ {
		rootLemma := canonLemma(y.Node(root))
		for _, phrase := range d.PhrasesWithWord(rootLemma) {
			nodes, ok := refEmbedAt(y, root, phrase)
			if ok {
				found = append(found, embeddingCandidate{phrase: phrase, root: root, nodes: nodes})
			}
		}
	}
	return refFilterMaximal(found)
}

func refEmbedAt(y *nlp.DepTree, root int, phrase *dict.Phrase) ([]int, bool) {
	want := make(map[string]int)
	for _, w := range phrase.Lemmas {
		want[w]++
	}
	if want[canonLemma(y.Node(root))] == 0 {
		return nil, false
	}
	// Depth-first probe (the Probe function of Algorithm 2): descend only
	// into children whose lemma is still needed.
	need := make(map[string]int, len(want))
	for w, c := range want {
		need[w] = c
	}
	var nodes []int
	var probe func(n int)
	take := func(n int) bool {
		l := canonLemma(y.Node(n))
		if need[l] == 0 {
			return false
		}
		need[l]--
		nodes = append(nodes, n)
		return true
	}
	probe = func(n int) {
		for _, c := range y.ChildrenOf(n) {
			if take(c) {
				probe(c)
			}
		}
	}
	if !take(root) {
		return nil, false
	}
	probe(root)
	for _, c := range need {
		if c > 0 {
			return nil, false
		}
	}
	sort.Ints(nodes)
	return nodes, true
}

func refFilterMaximal(cands []embeddingCandidate) []embeddingCandidate {
	sort.SliceStable(cands, func(i, j int) bool {
		if len(cands[i].nodes) != len(cands[j].nodes) {
			return len(cands[i].nodes) > len(cands[j].nodes)
		}
		if len(cands[i].phrase.Lemmas) != len(cands[j].phrase.Lemmas) {
			return len(cands[i].phrase.Lemmas) > len(cands[j].phrase.Lemmas)
		}
		return cands[i].root < cands[j].root
	})
	used := make(map[int]bool)
	var out []embeddingCandidate
	for _, c := range cands {
		overlap := false
		for _, n := range c.nodes {
			if used[n] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, n := range c.nodes {
			used[n] = true
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].root < out[j].root })
	return out
}
