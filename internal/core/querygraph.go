package core

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
	"gqa/internal/store"
)

// VertexCandidate is one entry of a vertex's candidate list C_v: an entity
// or class with confidence δ(arg, u) (§4.2.1).
type VertexCandidate struct {
	ID      store.ID
	IsClass bool
	Score   float64
}

// Vertex is one vertex of the semantic query graph Q^S (Definition 2): an
// argument with its ranked candidate list. A wh-argument is unconstrained
// and matches every entity and class (§2.2); its candidate list is empty
// and Unconstrained is set.
type Vertex struct {
	Arg           Argument
	Candidates    []VertexCandidate // sorted by descending Score
	Unconstrained bool
	Select        bool // this vertex carries the answer binding
}

// EdgeCandidate is one entry of an edge's candidate list C_e: a predicate
// path with confidence δ(rel, L).
type EdgeCandidate struct {
	Path  dict.Path
	Score float64
}

// Edge is one edge of Q^S: a relation phrase between two vertices with its
// candidate predicate paths.
type Edge struct {
	From, To   int // vertex indices
	Phrase     *dict.Phrase
	Candidates []EdgeCandidate // sorted by descending Score
}

// QueryGraph is the semantic query graph Q^S.
type QueryGraph struct {
	Vertices []Vertex
	Edges    []Edge
}

// SelectVertex returns the index of the answer vertex, or -1 for boolean
// (ASK-style) questions.
func (q *QueryGraph) SelectVertex() int {
	for i := range q.Vertices {
		if q.Vertices[i].Select {
			return i
		}
	}
	return -1
}

// String renders Q^S compactly for logs and the CLI.
func (q *QueryGraph) String() string {
	var b strings.Builder
	for i, v := range q.Vertices {
		marker := ""
		if v.Select {
			marker = "*"
		}
		fmt.Fprintf(&b, "v%d%s(%q", i, marker, v.Arg.Text)
		if v.Unconstrained {
			b.WriteString(", any")
		} else {
			fmt.Fprintf(&b, ", %d cands", len(v.Candidates))
		}
		b.WriteString(") ")
	}
	for _, e := range q.Edges {
		fmt.Fprintf(&b, "| v%d-[%q %d cands]-v%d ", e.From, e.Phrase.Text, len(e.Candidates), e.To)
	}
	return strings.TrimSpace(b.String())
}

// BuildOptions controls query-graph construction.
type BuildOptions struct {
	// MaxVertexCandidates caps each vertex candidate list (entity-linking
	// limit). Zero means 10.
	MaxVertexCandidates int
}

// BuildQueryGraph performs §4.1.3 and §4.2.1: collapse coreferent
// arguments into shared vertices, attach candidate lists to every vertex
// (entity linking) and edge (paraphrase dictionary), and mark the select
// vertex. Relations whose argument nodes coincide after coreference
// resolution share endpoints; nothing is disambiguated here.
//
// Q^S is sized once: its vertices, its edges and each candidate list.
func BuildQueryGraph(y *nlp.DepTree, rels []SemanticRelation, lk *linker.Linker, opts BuildOptions) *QueryGraph {
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

	// A vertex is a canonical tree node, found by a scan: there are at
	// most 2·|rels| of them.
	q := &QueryGraph{Vertices: make([]Vertex, 0, 2*len(rels)), Edges: make([]Edge, len(rels))}
	getVertex := func(arg Argument) int {
		node := canon(arg.Node)
		for vi := range q.Vertices {
			if q.Vertices[vi].Arg.Node != node {
				continue
			}
			// Prefer the content-bearing argument text over a pronoun's.
			if q.Vertices[vi].Arg.Wh && !arg.Wh {
				arg2 := arg
				arg2.Node = node
				q.Vertices[vi].Arg = arg2
			}
			return vi
		}
		a := arg
		a.Node = node
		// If coref redirected us to the antecedent, re-render its text.
		if node != arg.Node {
			a = makeArgument(y, node)
		}
		q.Vertices = append(q.Vertices, Vertex{Arg: a})
		return len(q.Vertices) - 1
	}

	for i, r := range rels {
		edge := &q.Edges[i]
		edge.From = getVertex(r.Arg1)
		edge.To = getVertex(r.Arg2)
		edge.Phrase = r.Phrase
		if len(r.Phrase.Entries) > 0 {
			edge.Candidates = make([]EdgeCandidate, len(r.Phrase.Entries))
			for j, e := range r.Phrase.Entries {
				edge.Candidates[j] = EdgeCandidate{Path: e.Path, Score: e.Score}
			}
		}
	}

	// Vertex candidate lists.
	for i := range q.Vertices {
		v := &q.Vertices[i]
		if isPureWh(v.Arg) {
			v.Unconstrained = true
			continue
		}
		if cands := lk.Link(v.Arg.Text, opts.MaxVertexCandidates); len(cands) > 0 {
			v.Candidates = make([]VertexCandidate, len(cands))
			for j, c := range cands {
				v.Candidates[j] = VertexCandidate{ID: c.ID, IsClass: c.IsClass, Score: c.Score}
			}
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

// isPureWh reports whether the argument is a bare wh-word or "that", in
// any case. Its text is lowered into a stack buffer: a text that lowers
// to a non-ASCII rune, or to more than eight bytes, is none of them.
func isPureWh(a Argument) bool {
	var buf [8]byte
	lower := buf[:0]
	for _, r := range a.Text {
		r = unicode.ToLower(r)
		if r >= utf8.RuneSelf || len(lower) == len(buf) {
			return false
		}
		lower = append(lower, byte(r))
	}
	switch string(lower) {
	case "who", "whom", "what", "which", "where", "when", "how", "whose", "that":
		return true
	}
	return false
}

// looksProper reports whether the argument mention is a proper-noun phrase
// (capitalized head), i.e. the user named a specific entity.
func looksProper(y *nlp.DepTree, a Argument) bool {
	if a.Node < 0 || a.Node >= y.Size() {
		return false
	}
	return strings.HasPrefix(y.Node(a.Node).Tag, "NNP")
}

// markSelect picks the answer vertex: the wh vertex if any (preferring
// pure wh over wh-determined), else the vertex whose node is the dobj of an
// imperative root ("Give me all members …"), else vertex 0. Boolean
// questions (no wh, no imperative — "Is Michelle Obama the wife of …") get
// no select vertex.
func markSelect(y *nlp.DepTree, q *QueryGraph) {
	if len(q.Vertices) == 0 {
		return
	}
	best := -1
	for i := range q.Vertices {
		if q.Vertices[i].Arg.Wh {
			if best < 0 || (isPureWh(q.Vertices[i].Arg) && !isPureWh(q.Vertices[best].Arg)) {
				best = i
			}
		}
	}
	if best < 0 {
		for i := range q.Vertices {
			node := q.Vertices[i].Arg.Node
			if node < 0 || node >= y.Size() {
				continue
			}
			n := y.Node(node)
			if (n.Rel == nlp.RelDobj || n.Rel == nlp.RelIobj) && n.Head >= 0 {
				head := y.Node(n.Head)
				if head.Head == -1 && imperativeLemma(head.Lemma) {
					best = i
					break
				}
			}
		}
	}
	if best < 0 {
		// Copular wh subject: "Who is the player in the Premier League?" —
		// the wh-word is the nsubj of a vertex node rather than an
		// argument itself; that vertex carries the answer.
		for i := range q.Vertices {
			node := q.Vertices[i].Arg.Node
			if node < 0 || node >= y.Size() {
				continue
			}
			for _, c := range y.ChildrenOf(node) {
				if y.Node(c).IsWh() && nlp.IsSubjectRel(y.Node(c).Rel) {
					best = i
					break
				}
			}
			if best >= 0 {
				break
			}
		}
	}
	if best < 0 {
		// No wh, no imperative object: boolean question.
		return
	}
	q.Vertices[best].Select = true
}

func imperativeLemma(l string) bool {
	switch l {
	case "give", "list", "show", "name", "tell":
		return true
	}
	return false
}
