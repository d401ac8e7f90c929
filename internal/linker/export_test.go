package linker

import (
	"fmt"
	"slices"
	"unsafe"

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
	_, w := l.link(mention, limit)
	return w.scored
}

// Read is how many posting entries Link(mention, limit) inspects: the
// heads it compares on every turn plus the entries its gallops probe.
func (l *Linker) Read(mention string, limit int) int {
	_, w := l.link(mention, limit)
	return w.read
}

// Grown is how many times Link(mention, limit)'s kept array grew past the
// size its first keep gave it: 0 while that size bounds what the walk can
// keep.
func (l *Linker) Grown(mention string, limit int) int {
	_, w := l.link(mention, limit)
	return w.grown
}

// Shapes counts what one Link(mention, limit) met that the skip's proof
// has a case for: postings a gallop passed beyond a list's head, slots
// that met a threshold only on lemma-only lists (and so were not reached),
// classes the walk orders with tRaw ≠ tLem, and ones with a threshold of 1.
type Shapes struct{ Jumped, Unreached, Uneven, Single int }

// Shapes returns what Link(mention, limit) met.
func (l *Linker) Shapes(mention string, limit int) Shapes {
	_, w := l.link(mention, limit)
	sh := Shapes{Jumped: w.jumped, Unreached: w.unreached}
	if m := l.query(mention, nil); m.nRaw > 0 {
		for i := range l.classes {
			c := &l.classes[i]
			if max(c.reach(m.nRaw), c.reach(m.nLem)) < minSimilarity {
				continue
			}
			tRaw, tLem := c.threshold(m.nRaw), c.threshold(m.nLem)
			if tRaw != tLem {
				sh.Uneven++
			}
			if min(tRaw, tLem) == 1 {
				sh.Single++
			}
		}
	}
	return sh
}

// Merger is the parent's k-way merge (merge_test.go), named for package
// linker_test.
type Merger = merger

// NewMerger rebuilds the merge's per-slot lemma-only lists over l.
func NewMerger(l *Linker) *Merger { return newMerger(l) }

// Link returns what the merge returns for Link(mention, limit), how many
// slots' labels it read, and how many postings it advanced through.
func (l *Merger) Link(mention string, limit int) ([]Candidate, int, int) {
	return l.mergeLink(mention, limit)
}

// QueryDiff describes how the mention tokeniser differs from the parent's
// (query_reference_test.go) on mention — raw and lemma IDs, token and lemma
// counts — or returns "".
func (l *Linker) QueryDiff(mention string) string {
	got, want := l.query(mention, nil), l.refQuery(mention)
	if !slices.Equal(got.raw, want.raw) || !slices.Equal(got.lem, want.lem) || got.nRaw != want.nRaw || got.nLem != want.nLem {
		return fmt.Sprintf("query(%q) = %+v, parent %+v", mention, got, want)
	}
	return ""
}

// LemmaSlack reports whether a candidate Link returns uncut is on
// the lemma-only postings of one of the mention's lemmas: a label shares
// a lemma that no raw token of the slot spells, which the walk counts only
// through those postings.
func (l *Linker) LemmaSlack(mention string) bool {
	m := l.query(mention, nil)
	cands, _ := l.link(mention, len(l.id))
	for _, c := range cands {
		s := uint32(slices.Index(l.id, c.ID))
		for _, t := range m.lem {
			if at, end := l.lemmaOnly(t); at < end {
				if _, ok := slices.BinarySearch(l.postings[at:end], s); ok {
					return true
				}
			}
		}
	}
	return false
}

// Bytes is the index's resident size, its arrays at their capacities so
// that growth slack counts: the vocabulary's arena, offsets and index, the
// label arrays, the postings and the lemma-only ranges, and the slot
// columns with their size classes.
func (l *Linker) Bytes() int64 {
	return int64(len(l.vocab.words)) + capBytes(l.vocab.off) + capBytes(l.vocab.index) +
		capBytes(l.toks) + capBytes(l.tokOff) + capBytes(l.lemOff) +
		capBytes(l.postOff) + capBytes(l.postings) + capBytes(l.lemRanges) +
		capBytes(l.id) + capBytes(l.isClass) + capBytes(l.deg) + capBytes(l.lab) + capBytes(l.classes)
}

// Slots is the number of linkable vertices the index holds.
func (l *Linker) Slots() int { return len(l.id) }

func capBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}
