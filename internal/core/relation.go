// Package core implements the paper's primary contribution: graph
// data-driven question answering. It covers the online pipeline end to end —
// semantic relation extraction from the dependency tree (Definition 1,
// Algorithm 2), argument recognition with the four heuristic rules of
// §4.1.2, semantic query graph construction (Definition 2, §4.1.3), phrase
// mapping (§4.2.1), and top-k subgraph matching with the TA-style stopping
// rule (Definitions 3 and 6, Algorithm 3).
package core

import (
	"slices"

	"gqa/internal/dict"
	"gqa/internal/nlp"
)

// Argument is one argument slot of a semantic relation: a node of the
// dependency tree plus its rendered text.
type Argument struct {
	Node int    // head token index in Y; -1 when unfilled
	Text string // surface text of the argument phrase
	Wh   bool   // pure wh-word ("who") or wh-determined NP ("which movies")
}

// Filled reports whether the slot holds an argument.
func (a Argument) Filled() bool { return a.Node >= 0 }

// SemanticRelation is the triple ⟨rel, arg1, arg2⟩ of Definition 1,
// anchored to its embedding in the dependency tree (Definition 5).
type SemanticRelation struct {
	Phrase    *dict.Phrase // the dictionary relation phrase rel
	Root      int          // root node of the embedding subtree
	Embedding []int        // token indices of the embedding, ascending
	Arg1      Argument
	Arg2      Argument
	// Rule records which heuristic found each argument: 0 = the base
	// subject/object scan, 1–4 = the corresponding rule of §4.1.2. Used by
	// the Table 9 ablation.
	Rule [2]int
}

// embeddingCandidate is an embedding found by Algorithm 2 before
// maximality filtering.
type embeddingCandidate struct {
	phrase *dict.Phrase
	root   int
	nodes  []int
}

// found is an embeddingCandidate while Algorithm 2 runs: its nodes are
// nodes[from:to] of a buffer of FindEmbeddings.
type found struct {
	phrase   *dict.Phrase
	root     int
	from, to int
}

// canonLemma maps a tree node's lemma into the dictionary's lemma space.
// The tagger lemmatizes by POS ("founded"/VBN → "found"), while dictionary
// phrase words are lemmatized without POS ("found" → "find"); applying the
// untagged lemmatizer to the tree lemma lands both on the same key.
func canonLemma(n *nlp.Node) string { return nlp.Lemma(n.Lemma, "") }

// noWord is the word ID of a tree node whose lemma no phrase has.
const noWord = ^uint32(0)

// FindEmbeddings implements Algorithm 2: for every node of Y, probe the
// inverted index and search depth-first for subtrees that contain exactly
// the words of some relation phrase. Maximality (Definition 5 condition 2)
// is enforced afterwards: embeddings whose node sets are contained in a
// larger accepted embedding are dropped, and overlapping embeddings are
// resolved in favor of the larger phrase.
//
// It runs on the dictionary's word IDs. One pass over Y gives each node
// two word IDs: its canonical lemma's, which embedAt matches it by, and
// its probe key's, whose phrases Algorithm 2 tries with it as the root.
// The probe key lemmatizes the canonical lemma once more; that is not the
// identity (nlp's TestUntaggedLemmaTwice). A phrase is tried only when its
// words are a sub-multiset of the question's, since an embedding takes
// each word from a node of its own.
//
// It allocates only what it returns: the candidates, and their node lists
// in one slab. Its working memory is on the stack while it fits there.
func FindEmbeddings(y *nlp.DepTree, d *dict.Dictionary) []embeddingCandidate {
	size := y.Size()
	var buf [96]uint32
	scr := scratch(buf[:], 3*size)
	ids, probes, question := scr[:size], scr[size:2*size], scr[2*size:2*size]
	for i := range size {
		canon := canonLemma(y.Node(i))
		id, ok := d.WordID(canon)
		if ok {
			question = append(question, id)
		} else {
			id = noWord
		}
		ids[i] = id
		if probes[i], ok = d.Probe(canon); !ok {
			probes[i] = noWord
		}
	}
	slices.Sort(question)
	var (
		foundBuf [16]found
		nodeBuf  [64]int
	)
	all, nodes := foundBuf[:0], nodeBuf[:0]
	for root, word := range probes {
		if word == noWord {
			continue
		}
		for _, s := range d.SlotsWith(word) {
			phrase, words := d.Slot(s)
			if !subMultiset(words, question) {
				continue
			}
			from := len(nodes)
			var ok bool
			if nodes, ok = embedAt(y, ids, root, words, nodes); ok {
				all = append(all, found{phrase: phrase, root: root, from: from, to: len(nodes)})
			}
		}
	}
	kept := filterMaximal(all, size, nodes)
	if len(kept) == 0 {
		return nil
	}
	n := 0
	for _, f := range kept {
		n += f.to - f.from
	}
	slab := make([]int, 0, n)
	out := make([]embeddingCandidate, len(kept))
	for i, f := range kept {
		at := len(slab)
		slab = append(slab, nodes[f.from:f.to]...)
		out[i] = embeddingCandidate{phrase: f.phrase, root: f.root, nodes: slab[at:len(slab):len(slab)]}
	}
	return out
}

// scratch returns n zero values, in buf (which must be zero) when they fit.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// subMultiset reports whether the sorted multiset a is contained in the
// sorted multiset b.
func subMultiset(a, b []uint32) bool {
	j := 0
	for _, w := range a {
		for j < len(b) && b[j] < w {
			j++
		}
		if j == len(b) || b[j] != w {
			return false
		}
		j++
	}
	return true
}

// embedAt checks whether an embedding of a phrase with the given words (a
// sorted multiset of word IDs) rooted at root exists: a connected subtree
// each of whose nodes carries a word of the phrase, jointly covering all
// phrase words. ids holds each node's canonical word ID (noWord if none).
// It appends the chosen node set, ascending, to nodes; nodes comes back
// as it was when there is none.
func embedAt(y *nlp.DepTree, ids []uint32, root int, words []uint32, nodes []int) ([]int, bool) {
	var usedBuf [8]bool
	used := scratch(usedBuf[:], len(words)) // used[i]: a chosen node carries words[i]
	if !take(ids[root], words, used) {
		return nodes, false
	}
	from := len(nodes)
	nodes = probe(y, ids, words, used, append(nodes, root), root)
	if len(nodes)-from < len(words) {
		return nodes[:from], false
	}
	slices.Sort(nodes[from:])
	return nodes, true
}

// probe is the Probe function of Algorithm 2: a depth-first descent from n
// only into children whose word is still needed, appending them to nodes.
func probe(y *nlp.DepTree, ids, words []uint32, used []bool, nodes []int, n int) []int {
	for _, c := range y.ChildrenOf(n) {
		if take(ids[c], words, used) {
			nodes = probe(y, ids, words, used, append(nodes, c), c)
		}
	}
	return nodes
}

// take marks word w used if the phrase still needs it.
func take(w uint32, words []uint32, used []bool) bool {
	for i, x := range words {
		if x == w && !used[i] {
			used[i] = true
			return true
		}
	}
	return false
}

// filterMaximal keeps, among overlapping embeddings, the ones covering the
// most words (ties: the one whose phrase has more words, then earliest
// root), and drops embeddings strictly contained in an accepted one. size
// is |Y|, and nodes holds the embeddings' node lists. Beyond that the
// order of cands breaks ties, which the stable sort keeps: FindEmbeddings
// lists a root's phrases in the order they were first added to the
// dictionary.
func filterMaximal(cands []found, size int, nodes []int) []found {
	slices.SortStableFunc(cands, func(a, b found) int {
		if la, lb := a.to-a.from, b.to-b.from; la != lb {
			return lb - la
		}
		if len(a.phrase.Lemmas) != len(b.phrase.Lemmas) {
			return len(b.phrase.Lemmas) - len(a.phrase.Lemmas)
		}
		return a.root - b.root
	})
	var buf [64]bool
	used := scratch(buf[:], size)
	out := cands[:0]
next:
	for _, c := range cands {
		for _, n := range nodes[c.from:c.to] {
			if used[n] {
				continue next
			}
		}
		for _, n := range nodes[c.from:c.to] {
			used[n] = true
		}
		out = append(out, c)
	}
	slices.SortStableFunc(out, func(a, b found) int { return a.root - b.root })
	return out
}
