package linker

import "strings"

// The vocabulary's reference: the interning it replaced, verbatim but for
// the names — a map from token to ID and a strings.Clone of every new
// token, IDs in first-seen order. TestQuickVocab and FuzzVocab
// (vocab_test.go) hold the table to it.
type refVocab struct {
	vocab map[string]uint32 // label token or noun lemma → token ID
}

func newRefVocab() *refVocab { return &refVocab{vocab: make(map[string]uint32)} }

// tokenID returns t's token ID, adding t to the vocabulary if it is new.
func (b *refVocab) tokenID(t string) uint32 {
	id, ok := b.vocab[t]
	if !ok {
		id = uint32(len(b.vocab))
		b.vocab[strings.Clone(t)] = id
	}
	return id
}
