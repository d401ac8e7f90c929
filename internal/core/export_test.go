package core

import (
	"slices"
	"strconv"

	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/nlp"
	"gqa/internal/store"
)

// Embedding is one candidate Algorithm 2 returns, named for the
// differential tests of package core_test, which import internal/bench
// (which imports this package).
type Embedding struct {
	Phrase *dict.Phrase
	Root   int
	Nodes  []int
}

func embeddings(cands []embeddingCandidate) []Embedding {
	out := make([]Embedding, len(cands))
	for i, c := range cands {
		out[i] = Embedding{c.phrase, c.root, c.nodes}
	}
	return out
}

// Embeddings is FindEmbeddings(y, d).
func Embeddings(y *nlp.DepTree, d *dict.Dictionary) []Embedding {
	return embeddings(FindEmbeddings(y, d))
}

// ReferenceEmbeddings is what the reference (embed_reference_test.go)
// finds over d's phrases.
func ReferenceEmbeddings(y *nlp.DepTree, d *dict.Dictionary) []Embedding {
	return embeddings(refFindEmbeddings(y, refDictOf(d)))
}

// ReferenceQueryGraph is what the parent's BuildQueryGraph
// (querygraph_reference_test.go) builds.
func ReferenceQueryGraph(y *nlp.DepTree, rels []SemanticRelation, lk *linker.Linker, opts BuildOptions) *QueryGraph {
	return refBuildQueryGraph(y, rels, lk, opts)
}

// newResultSet is an empty result set for a query of nv vertices and ne
// edges, as a search resets its own.
func newResultSet(topK, maxMatches, nv, ne int) *resultSet {
	rs := new(resultSet)
	rs.reset(topK, maxMatches, nv, ne)
	return rs
}

// newCollidingResultSet is a result set whose assignment hash keeps two
// bits, so that distinct assignments share found's chains, which a 64-bit
// hash over test-sized inputs never shows.
func newCollidingResultSet(topK, maxMatches, nv, ne int) *resultSet {
	rs := newResultSet(topK, maxMatches, nv, ne)
	rs.hashMask = 3
	return rs
}

// offer records m as a search would, its edge ei realized by candidate
// path cands[ei].
func (rs *resultSet) offer(m *Match, cands ...store.ID) {
	row := append(append(append([]store.ID(nil), m.Assignment...), m.Via...), cands...)
	rs.record(row, m.EdgeRev, m.Score)
}

// All is every match of ms, assembled by At.
func (ms Matches) All() []Match {
	var out []Match
	for i := range ms.Len() {
		out = append(out, ms.At(i))
	}
	return out
}

// findAll is FindTopKMatches with its matches assembled, for the tests
// that read them as a []Match.
func findAll(g *store.Graph, q *QueryGraph, opts MatchOptions) ([]Match, MatchStats) {
	ms, stats := FindTopKMatches(g, q, opts)
	return ms.All(), stats
}

// RaceEnabled is raceEnabled, for package core_test.
const RaceEnabled = raceEnabled

// WalkDiff walks every candidate path of every edge of q, in both
// orientations, from each of starts, with the matcher's reachable and with
// the parent's (walk_reference_test.go), and says how they first differ
// ("" when they never do). It returns how many walks it compared, and in
// how many both orientations reached a common target.
func WalkDiff(view store.View, q *QueryGraph, starts []store.ID) (walks, both int, diff string) {
	m := walkMatcher(view, q)
	for ei := range q.Edges {
		for ci, pc := range q.Edges[ei].Candidates {
			for _, u := range starts {
				for _, rev := range []bool{false, true} {
					got, gotN := m.reachable(0, u, ei, ci, rev)
					want, wantN := m.refReachable(u, pc.Path, rev)
					if !slices.Equal(got, want) || gotN != wantN {
						return walks, both, "edge " + strconv.Itoa(ei) + " path " + pc.Path.Key() + " from " + strconv.Itoa(int(u)) +
							": targets or nFwd differ from the reference's"
					}
					walks++
					if len(refFollowPath(view, u, pc.Path))+len(refFollowPath(view, u, pc.Path.Reverse())) > len(want) {
						both++
					}
				}
			}
		}
	}
	return walks, both, ""
}

// answerLabels renders a result's answers with the graph's labels.
func answerLabels(r *Result, g *store.Graph) []string {
	out := make([]string, len(r.Answers))
	for i, id := range r.Answers {
		out[i] = g.LabelOf(id)
	}
	return out
}

// SPARQLDiff reports how ResolvedSPARQL's text of row i differs from the
// parent's AST rendering, or "" (tosparql_render_test.go).
var SPARQLDiff = sparqlDiff
