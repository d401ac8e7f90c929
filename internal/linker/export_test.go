package linker

import "gqa/internal/store"

// Reference is the pre-index Link (reference_test.go), named for the
// differential tests of package linker_test, which import internal/bench
// (and through it internal/core, which imports this package).
type Reference = reference

// NewReference builds the reference over g.
func NewReference(g *store.Graph) *Reference { return newReference(g) }

// Scored is how many slots Link(mention, limit) scores: the work the stop
// rule saves, counted without a clock.
func (l *Linker) Scored(mention string, limit int) int {
	_, n := l.link(mention, limit)
	return n
}
