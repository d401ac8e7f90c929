package core

import (
	"slices"
	"strings"

	"gqa/internal/dict"
	"gqa/internal/nlp"
)

// ExtractOptions controls semantic-relation extraction.
type ExtractOptions struct {
	// DisableHeuristicRules turns off Rules 1–4 of §4.1.2, leaving only the
	// base subject/object scan — the "without the four rules" condition of
	// Table 9.
	DisableHeuristicRules bool
}

// ExtractRelations runs the question-understanding front half: find
// relation-phrase embeddings (Algorithm 2), then recognize arg1/arg2 for
// each embedding (§4.1.2). Embeddings whose arguments cannot be found are
// discarded, as the paper prescribes.
//
// Beyond FindEmbeddings it allocates only what it returns: the relations,
// sized once, and the argument texts of more than one word. Its working
// memory is on the stack while it fits there.
func ExtractRelations(y *nlp.DepTree, d *dict.Dictionary, opts ExtractOptions) []SemanticRelation {
	var buf [8]SemanticRelation
	out := buf[:0]
	for _, emb := range FindEmbeddings(y, d) {
		rel, ok := findArguments(y, emb, opts)
		if !ok {
			continue
		}
		out = append(out, rel)
	}
	// Conjoined verbs share the missing subject of their head clause:
	// "born in Vienna and died in Berlin" — the conj relation inherits
	// arg1 from the relation whose embedding contains its conj head.
	inheritConjSubjects(y, out)
	// Conjoined argument NPs read intersectively: "films star X and Y"
	// yields one relation per conjunct, sharing the other argument.
	out = expandConjArguments(y, out)
	if len(out) == 0 {
		return nil
	}
	return append(make([]SemanticRelation, 0, len(out)), out...)
}

// expandConjArguments duplicates a relation for each conj dependent of its
// argument heads, so "star Antonio Banderas and Anthony Hopkins" becomes
// two edges of Q^S sharing the films vertex — the intersective reading.
func expandConjArguments(y *nlp.DepTree, rels []SemanticRelation) []SemanticRelation {
	out := rels
	for _, r := range rels {
		for slot, arg := range [2]Argument{r.Arg1, r.Arg2} {
			if !arg.Filled() || arg.Node >= y.Size() {
				continue
			}
			for _, c := range y.ChildrenOf(arg.Node) {
				cn := y.Node(c)
				if cn.Rel != nlp.RelConj || !nlp.IsNounTag(cn.Tag) {
					continue
				}
				dup := r
				conjArg := makeArgument(y, c)
				if slot == 0 {
					dup.Arg1 = conjArg
				} else {
					dup.Arg2 = conjArg
				}
				out = append(out, dup)
			}
		}
	}
	return out
}

// findArguments recognizes arg1/arg2 around an embedding. The base scan
// looks for subject-like and object-like dependencies from embedding nodes
// to children outside the embedding; the four heuristic rules then fill
// remaining gaps.
func findArguments(y *nlp.DepTree, emb embeddingCandidate, opts ExtractOptions) (SemanticRelation, bool) {
	rel := SemanticRelation{Phrase: emb.phrase, Root: emb.root, Embedding: emb.nodes}
	var buf [64]bool
	inEmb := scratch(buf[:], y.Size())
	for _, n := range emb.nodes {
		inEmb[n] = true
	}

	arg1 := scanChildren(y, emb.nodes, inEmb, emb.root, nlp.IsSubjectRel)
	arg2 := scanChildren(y, emb.nodes, inEmb, emb.root, nlp.IsObjectRel)

	if !opts.DisableHeuristicRules {
		nodes := emb.nodes
		// Rule 1: extend the embedding with light words (prepositions,
		// auxiliaries) and rescan from the new nodes.
		if arg1 < 0 || arg2 < 0 {
			var buf [16]int
			ext := extendWithLightWords(y, nodes, inEmb, buf[:0])
			if len(ext) > len(nodes) {
				if arg1 < 0 {
					arg1 = scanChildren(y, ext, inEmb, emb.root, nlp.IsSubjectRel)
					if arg1 >= 0 {
						rel.Rule[0] = 1
					}
				}
				if arg2 < 0 {
					arg2 = scanChildren(y, ext, inEmb, emb.root, nlp.IsObjectRel)
					if arg2 >= 0 {
						rel.Rule[1] = 1
					}
				}
				nodes = ext
			}
		}
		// Rule 2: the embedding root itself plays a subject/object role in
		// the surrounding clause ("the creator of Miffy" — "creator" is
		// nsubj of "come"). The root becomes arg1, creating the shared
		// vertex that joins the two relations in Q^S.
		if arg1 < 0 {
			r := y.Node(emb.root)
			if r.Head >= 0 && (nlp.IsSubjectRel(r.Rel) || nlp.IsObjectRel(r.Rel)) {
				arg1 = emb.root
				rel.Rule[0] = 2
			}
		}
		// Rule 2 (extended): a relation phrase hanging off a noun by prep
		// or rcmod modifies that noun — "companies in Munich", "movies
		// directed by Coppola". The governing noun is arg1. (Stanford's
		// collapsed dependencies encode the same fact as prep_in/rcmod+ref;
		// our uncollapsed trees recover it here.)
		if arg1 < 0 {
			r := y.Node(emb.root)
			if r.Head >= 0 && (r.Rel == nlp.RelPrep || r.Rel == nlp.RelRcmod) && nlp.IsNounTag(y.Node(r.Head).Tag) {
				arg1 = r.Head
				rel.Rule[0] = 2
			}
		}
		// Rule 3: the parent of the embedding root has a subject-like child.
		if arg1 < 0 {
			if h := y.Node(emb.root).Head; h >= 0 {
				for _, c := range y.ChildrenOf(h) {
					if !inEmb[c] && nlp.IsSubjectRel(y.Node(c).Rel) {
						arg1 = c
						rel.Rule[0] = 3
						break
					}
				}
			}
		}
		// Rule 4: fall back to the nearest wh-word, or the first noun
		// phrase inside the (extended) embedding.
		if arg1 < 0 {
			if n := nearestWh(y, inEmb, emb.root); n >= 0 {
				arg1 = n
				rel.Rule[0] = 4
			} else if n := firstNoun(y, nodes); n >= 0 {
				arg1 = n
				rel.Rule[0] = 4
			}
		}
		if arg2 < 0 {
			if n := nearestWh(y, inEmb, emb.root); n >= 0 && n != arg1 {
				arg2 = n
				rel.Rule[1] = 4
			} else if n := firstNoun(y, nodes); n >= 0 && n != arg1 {
				arg2 = n
				rel.Rule[1] = 4
			}
		}
	}

	// The paper discards relation phrases whose arguments cannot be
	// recovered even by the heuristic rules.
	if arg1 < 0 || arg2 < 0 {
		return rel, false
	}

	rel.Arg1 = makeArgument(y, arg1)
	rel.Arg2 = makeArgument(y, arg2)
	return rel, true
}

// scanChildren finds, over the embedding nodes, children outside the
// embedding related by an accepted grammatical relation; among multiple
// candidates the one nearest to the embedding root wins (§4.1.2).
func scanChildren(y *nlp.DepTree, nodes []int, inEmb []bool, root int, accept func(string) bool) int {
	best, bestDist := -1, 1<<30
	for _, n := range nodes {
		for _, c := range y.ChildrenOf(n) {
			if inEmb[c] || !accept(y.Node(c).Rel) {
				continue
			}
			// The possessive clitic carries the poss relation grammatically
			// but the argument is the possessor noun, not the "'s" itself.
			if y.Node(c).Tag == "POS" {
				continue
			}
			d := abs(c - root)
			if d < bestDist {
				best, bestDist = c, d
			}
		}
	}
	return best
}

// extendWithLightWords returns the embedding plus any light-word children
// (Rule 1), in out; inEmb is updated so later scans skip them.
func extendWithLightWords(y *nlp.DepTree, nodes []int, inEmb []bool, out []int) []int {
	out = append(out, nodes...)
	for _, n := range nodes {
		for _, c := range y.ChildrenOf(n) {
			if inEmb[c] {
				continue
			}
			t := y.Node(c)
			if nlp.IsLightWord(t.Lower) || t.Rel == nlp.RelAux || t.Rel == nlp.RelAuxPass || t.Rel == nlp.RelCop {
				inEmb[c] = true
				out = append(out, c)
			}
		}
	}
	slices.Sort(out)
	return out
}

// nearestWh returns the wh-word outside the embedding nearest to root.
func nearestWh(y *nlp.DepTree, inEmb []bool, root int) int {
	best, bestDist := -1, 1<<30
	for i := 0; i < y.Size(); i++ {
		if inEmb[i] || !y.Node(i).IsWh() {
			continue
		}
		if d := abs(i - root); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

func firstNoun(y *nlp.DepTree, nodes []int) int {
	for _, n := range nodes {
		if nlp.IsNounTag(y.Node(n).Tag) {
			return n
		}
	}
	return -1
}

// makeArgument renders an argument node. Arguments carry the full NP text
// (subtree without relative clauses) for entity linking, and note whether
// they are wh-flavored.
func makeArgument(y *nlp.DepTree, node int) Argument {
	n := y.Node(node)
	if n.IsWh() {
		return Argument{Node: node, Text: n.Lower, Wh: true}
	}
	arg := Argument{Node: node, Text: argumentText(y, node)}
	// A wh-determined NP ("which movies") is a typed variable: flagged wh
	// but keeps its content text for class linking.
	for _, c := range y.ChildrenOf(node) {
		if y.Node(c).IsWh() {
			arg.Wh = true
		}
	}
	return arg
}

// argumentText renders the NP subtree of node, excluding relative clauses,
// prepositional attachments and other clause-level material — "an actor
// that played in Philadelphia" contributes just "actor".
func argumentText(y *nlp.DepTree, node int) string {
	var buf [8]int
	words := npWords(y, node, buf[:0])
	slices.Sort(words)
	var textBuf [8]string
	texts := textBuf[:0]
	for _, w := range words {
		texts = append(texts, y.Node(w).Text)
	}
	return strings.Join(texts, " ")
}

// npWords appends node n and its nn/amod descendants to words.
func npWords(y *nlp.DepTree, n int, words []int) []int {
	words = append(words, n)
	for _, c := range y.ChildrenOf(n) {
		switch y.Node(c).Rel {
		case nlp.RelNn, nlp.RelAmod:
			words = npWords(y, c, words)
		}
	}
	return words
}

// inheritConjSubjects fills the arg1 of relations whose embedding root is a
// conj dependent, copying from the relation that contains the conj head.
func inheritConjSubjects(y *nlp.DepTree, rels []SemanticRelation) {
	for i := range rels {
		root := y.Node(rels[i].Root)
		if root.Rel != nlp.RelConj || root.Head < 0 {
			continue
		}
		for j := range rels {
			if i == j {
				continue
			}
			for _, n := range rels[j].Embedding {
				if n == root.Head && rels[j].Arg1.Filled() {
					rels[i].Arg1 = rels[j].Arg1
					rels[i].Rule[0] = 3
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
