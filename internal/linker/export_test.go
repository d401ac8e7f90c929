package linker

import (
	"slices"

	"gqa/internal/store"
)

// Reference is the pre-index Link (reference_test.go), named for the
// differential tests of package linker_test, which import internal/bench
// (and through it internal/core, which imports this package).
type Reference = reference

// NewReference builds the reference over g.
func NewReference(g *store.Graph) *Reference { return newReference(g) }

// Scored is how many slots' labels Link(mention, limit) reads: slots the
// class stop leaves unvisited and slots the per-slot bound skips are not
// counted. It is the work both save, counted without a clock.
func (l *Linker) Scored(mention string, limit int) int {
	_, n := l.link(mention, limit)
	return n
}

// LemmaSlack reports whether a candidate Link(mention, 0) returns has a
// label sharing more lemmas with the mention than there are lemma postings
// of the mention that its slot is on: a match the per-slot bound admits
// only through the slot's lemma-only IDs.
func (l *Linker) LemmaSlack(mention string) bool {
	m := l.query(mention)
	cands, _ := l.link(mention, 0)
	for _, c := range cands {
		s := uint32(slices.Index(l.id, c.ID))
		onLists := 0
		for _, t := range m.lem {
			if _, ok := slices.BinarySearch(l.postings[l.postOff[t]:l.postOff[t+1]], s); ok {
				onLists++
			}
		}
		for i := l.lab[s][0]; i < l.lab[s][1]; i++ {
			if intersect(m.lem, l.toks[l.lemOff[i]:l.tokOff[i+1]]) > onLists {
				return true
			}
		}
	}
	return false
}
