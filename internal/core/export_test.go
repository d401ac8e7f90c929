package core

import (
	"gqa/internal/dict"
	"gqa/internal/nlp"
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

// newCollidingResultSet is a result set whose assignment hash keeps two
// bits, so that distinct assignments share found's chains, which a 64-bit
// hash over test-sized inputs never shows.
func newCollidingResultSet(topK, maxMatches int) *resultSet {
	rs := newResultSet(topK, maxMatches)
	rs.hashMask = 3
	return rs
}
