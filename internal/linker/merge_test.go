package linker

import (
	"cmp"
	"slices"
)

// merger is Link as it was before the T-occurrence skip: a k-way merge of
// every mention token's postings that visits each slot sharing a token,
// with each slot's lemma-only IDs kept per slot (lemOnlyOff/lemOnly)
// rather than as postings. mergeLink is the parent's link verbatim but for
// its receiver, the count of merged postings it also returns, and its
// mention tokeniser, which is the parent's too (refQuery). The
// differential tests hold the skip to it: the same candidates, bit for
// bit, and the same slots scored.
type merger struct {
	*Linker

	// lemOnly[lemOnlyOff[s]:lemOnlyOff[s+1]] are the ascending lemma IDs of
	// slot s's labels that are none of its raw tokens.
	lemOnlyOff, lemOnly []uint32
}

// newMerger rebuilds the per-slot lemma-only lists from l's label arrays.
func newMerger(l *Linker) *merger {
	m := &merger{Linker: l, lemOnlyOff: make([]uint32, 1, len(l.lab)+1)}
	for _, r := range l.lab {
		var raw, lem []uint32
		for i := r[0]; i < r[1]; i++ {
			raw = append(raw, l.toks[l.tokOff[i]:l.lemOff[i]]...)
			lem = append(lem, l.toks[l.lemOff[i]:l.tokOff[i+1]]...)
		}
		raw = sortedSet(raw)
		for _, t := range sortedSet(lem) {
			if _, ok := slices.BinarySearch(raw, t); !ok {
				m.lemOnly = append(m.lemOnly, t)
			}
		}
		m.lemOnlyOff = append(m.lemOnlyOff, uint32(len(m.lemOnly)))
	}
	return m
}

// mergeLink is the parent's link: it also returns how many postings its
// merge advanced through.
func (l *merger) mergeLink(text string, limit int) ([]Candidate, int, int) {
	m := l.refQuery(text)
	if m.nRaw == 0 {
		return nil, 0, 0
	}

	// A list is what is left of one mention token's postings,
	// postings[at:end]. A token that is both a raw token and a lemma of the
	// mention has one list, counted on both sides.
	type list struct {
		at, end  uint32
		raw, lem int32 // 1 when the token is among the mention's raw tokens, its lemmas
	}
	lists := make([]list, 0, 8)
	for _, t := range sortedSet(slices.Concat(m.raw, m.lem)) {
		ls := list{at: l.postOff[t], end: l.postOff[t+1]}
		if ls.at == ls.end {
			continue
		}
		if slices.Contains(m.raw, t) {
			ls.raw = 1
		}
		if slices.Contains(m.lem, t) {
			ls.lem = 1
		}
		lists = append(lists, ls)
	}
	if len(lists) == 0 {
		return nil, 0, 0
	}
	// A class whose reach is below minSimilarity holds no candidate; the
	// others go best reach first, so the kept slice fills with high scores.
	// lists, order and sub get constant capacities so that they live on the
	// stack for the few classes and mention tokens a call usually has: on a
	// small KB their allocations cost more than the walk saves.
	type visit struct {
		*sizeClass
		reach float64
	}
	order := make([]visit, 0, 16)
	for i := range l.classes {
		c := &l.classes[i]
		if r := max(c.reach(m.nRaw), c.reach(m.nLem)); r >= minSimilarity {
			order = append(order, visit{c, r})
		}
	}
	slices.SortStableFunc(order, func(a, b visit) int { return cmp.Compare(b.reach, a.reach) })

	var out []Candidate
	scored, merged := 0, 0
	sub := make([]list, 0, 8)
	for _, v := range order {
		// A k-way merge of the class's stretch of every mention token's
		// postings visits each slot that shares a token once, in slot order.
		sub = sub[:0]
		for _, ls := range lists {
			p := l.postings[ls.at:ls.end]
			i, _ := slices.BinarySearch(p, v.start)
			if j, _ := slices.BinarySearch(p[i:], v.end); j > 0 {
				ls.at, ls.end = ls.at+uint32(i), ls.at+uint32(i+j)
				sub = append(sub, ls)
			}
		}
		counts, sim := [2]int{-1, -1}, 0.0
		for len(sub) > 0 {
			s := l.postings[sub[0].at]
			for _, ls := range sub[1:] {
				s = min(s, l.postings[ls.at])
			}
			// Advance and count the lists s heads; drop the spent ones.
			var cRaw, cLem int32
			for i := 0; i < len(sub); {
				ls := &sub[i]
				if l.postings[ls.at] == s {
					merged++
					cRaw, cLem = cRaw+ls.raw, cLem+ls.lem
					if ls.at++; ls.at == ls.end {
						sub[i] = sub[len(sub)-1]
						sub = sub[:len(sub)-1]
						continue
					}
				}
				i++
			}
			// A label of s shares at most cRaw raw tokens with the
			// mention, one per raw-token list s is on, and at most cLem
			// lemmas through lemma lists plus the lemma-only IDs of s the
			// mention has: a lemma no raw token of s spells puts s on no
			// list ("cities" under "city box"). bound turns the counts into
			// a cap on every label's similarity. The cap depends on s only
			// through its counts, which most slots of a class share, so it
			// is recomputed when they change.
			lemOnly := l.lemOnly[l.lemOnlyOff[s]:l.lemOnlyOff[s+1]]
			if c := [2]int{int(cRaw), int(cLem) + intersect(m.lem, lemOnly)}; c != counts {
				counts, sim = c, max(v.bound(c[0], m.nRaw), v.bound(c[1], m.nLem))
			}
			// The skip is exact: score rounds monotonically in sim, so a
			// skipped s is either below minSimilarity or ranks below the
			// k-th. It skips rather than stops, since a later slot may be on
			// more lists.
			if sim < minSimilarity {
				continue
			}
			if limit > 0 && len(out) == limit &&
				rank(out[limit-1], Candidate{ID: l.id[s], Score: score(sim, l.prior(s))}) < 0 {
				// The stop is exact too. No slot from s on scores above
				// score(reach, prior[s]): its similarity is at most reach,
				// its prior at most prior[s], and score rounds monotonically
				// in each. A later slot with an equal prior has a larger ID,
				// so it ranks below that bound; one with a lower prior has a
				// strictly lower bound: priors are deg/maxDeg with integer
				// degrees, at least 1/maxDeg apart, and 0.15× that is far
				// above one ulp of a sum ≤ 1. Since sim ≤ reach, every slot
				// the stop would leave the skip leaves too, so testing the
				// stop only here reads the same slots.
				if rank(out[limit-1], Candidate{ID: l.id[s], Score: score(v.reach, l.prior(s))}) < 0 {
					break
				}
				continue
			}
			scored++
			if c, ok := l.candidate(s, &m); ok {
				out = keep(out, c, limit, limit)
			}
		}
	}
	if limit <= 0 {
		slices.SortFunc(out, rank)
	}
	return out, scored, merged
}
