package core

// BuildQueryGraph as it was before Q^S was sized once, verbatim but for
// the names: a map from tree node to vertex, candidate lists grown by
// append, and a lowered copy of every argument text to test for a bare
// wh-word. querygraph_differential_test.go compares the two.

import (
	"strings"

	"gqa/internal/linker"
	"gqa/internal/nlp"
)

// refBuildQueryGraph performs §4.1.3 and §4.2.1: collapse coreferent
// arguments into shared vertices, attach candidate lists to every vertex
// (entity linking) and edge (paraphrase dictionary), and mark the select
// vertex. Relations whose argument nodes coincide after coreference
// resolution share endpoints; nothing is disambiguated here.
func refBuildQueryGraph(y *nlp.DepTree, rels []SemanticRelation, lk *linker.Linker, opts BuildOptions) *QueryGraph {
	if opts.MaxVertexCandidates == 0 {
		opts.MaxVertexCandidates = 10
	}
	coref := nlp.ResolveCoref(y)
	canon := func(node int) int {
		if a, ok := coref[node]; ok {
			return a
		}
		return node
	}

	q := &QueryGraph{}
	vertexOf := make(map[int]int) // canonical tree node → vertex index
	getVertex := func(arg Argument) int {
		node := canon(arg.Node)
		if vi, ok := vertexOf[node]; ok {
			// Prefer the content-bearing argument text over a pronoun's.
			if q.Vertices[vi].Arg.Wh && !arg.Wh {
				arg2 := arg
				arg2.Node = node
				q.Vertices[vi].Arg = arg2
			}
			return vi
		}
		vi := len(q.Vertices)
		a := arg
		a.Node = node
		// If coref redirected us to the antecedent, re-render its text.
		if node != arg.Node {
			a = makeArgument(y, node)
		}
		q.Vertices = append(q.Vertices, Vertex{Arg: a})
		vertexOf[node] = vi
		return vi
	}

	for _, r := range rels {
		v1 := getVertex(r.Arg1)
		v2 := getVertex(r.Arg2)
		edge := Edge{From: v1, To: v2, Phrase: r.Phrase}
		for _, e := range r.Phrase.Entries {
			edge.Candidates = append(edge.Candidates, EdgeCandidate{Path: e.Path, Score: e.Score})
		}
		q.Edges = append(q.Edges, edge)
	}

	// Vertex candidate lists.
	for i := range q.Vertices {
		v := &q.Vertices[i]
		if refIsPureWh(v.Arg) {
			v.Unconstrained = true
			continue
		}
		cands := lk.Link(v.Arg.Text, opts.MaxVertexCandidates)
		for _, c := range cands {
			v.Candidates = append(v.Candidates, VertexCandidate{ID: c.ID, IsClass: c.IsClass, Score: c.Score})
		}
		if len(v.Candidates) == 0 {
			// Unlinkable argument. A wh-determined NP ("which movies" when
			// "movies" isn't in the KB) degrades to an unconstrained
			// variable; so does a bare common-noun variable introduced by
			// Rule 2 ("members"). Proper-noun mentions are left empty —
			// the match will fail, surfacing an entity-linking failure
			// (Table 10 category 1).
			if v.Arg.Wh || !looksProper(y, v.Arg) {
				v.Unconstrained = true
			}
		}
	}

	markSelect(y, q)
	return q
}

// refIsPureWh reports whether the argument is a bare wh-word or "that".
func refIsPureWh(a Argument) bool {
	switch strings.ToLower(a.Text) {
	case "who", "whom", "what", "which", "where", "when", "how", "whose", "that":
		return true
	}
	return false
}
