// Package linker implements entity linking (§4.2.1): mapping an argument
// phrase from the question to a ranked list of candidate entities and
// classes in the RDF graph, each with a confidence probability δ(arg, u).
//
// The paper delegates this to the DBpedia Lookup service; this package is
// the in-process substitute. It indexes every entity and class by the
// tokens of its labels (all rdfs:label literals plus the IRI local name)
// and scores candidates by token-set similarity blended with a popularity
// prior (vertex degree), which reproduces the service's observable
// behaviour: multi-candidate ambiguity with plausible confidence ordering.
//
// The index is flat arrays built once by New, each copied to its length.
// A vocabulary gives every label token and every noun lemma of one a
// token ID in first-seen order: the tokens are back to back in one string
// with their offsets, and an open-addressed index of IDs, probed with the
// token's full bytes, finds one — the term table's shape (store's
// terms.go) for one string key, with no map and no string per token. Each
// linkable vertex is a slot holding its ID, class flag, degree prior and
// labels; each label is two sorted sets of token IDs, raw and lemma; and
// each token has the ascending slots whose labels contain it. Link walks
// the postings of the mention's tokens and scores the slots it meets from
// intersection counts.
//
// Link stops at the k-th, as the paper's top-k search does (Algorithm 3):
// a slot's size class [lo, hi] spans the sizes of all its label sets, and
// similarity is at most min(n, L)/max(n, L) for sets of n and L tokens, so
// a class bounds the similarity of every slot in it against the mention.
// Slots are numbered by class, then by descending prior, then by ID; Link
// visits the classes best bound first, in slot order inside each, and
// leaves a class at the first slot whose bound cannot rank above the k-th
// candidate kept.
//
// Link reads only the labels that can pass, and visits only the slots
// that can. A token also has lemma-only postings: the slots with it in a
// label's lemma set and in no label's raw set ("city" of "cities"). The
// walk counts, per slot, how many of the mention's raw-token lists it is
// on and how many of its lemma lists, raw and lemma-only postings of the
// mention's lemmas alike; a label shares no more raw tokens than the first
// count and no more lemmas than the second. With the class's smallest set
// size those counts cap the similarity of every label of the slot, and
// Link skips a slot whose cap is below minSimilarity or cannot rank above
// the k-th. The cap reaches minSimilarity only on at least tRaw raw lists
// or tLem lemma lists, so the walk jumps to the next slot on that many and
// gallops the lists behind over the slots between (the T-occurrence skip
// of approximate string search): a slot that shares one of a name's three
// tokens is neither read nor visited. As in a lookup by token, a slot is
// visited only through raw postings, never through lemma-only ones.
//
// Snapshot rule: a Linker is the graph as it was when New ran — labels,
// class flags and degrees alike. It holds no reference to the graph, so a
// later mutation reaches linking only through a new Linker.
package linker

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"time"
	"unicode"

	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// Linking metrics: mention traffic, how many referents each mention fans
// out to (before the limit cut), and lookup latency.
var (
	linkTotal = obs.DefaultCounter("gqa_linker_link_total",
		"Mentions linked against the entity/class index.")
	linkCandidates = obs.DefaultCounter("gqa_linker_candidates_total",
		"Candidate referents returned across all Link calls (post-limit).")
	linkSeconds = obs.DefaultHistogram("gqa_linker_link_seconds",
		"Entity-linking latency per mention.", nil)
)

// Candidate is one possible referent of a mention.
type Candidate struct {
	ID      store.ID
	IsClass bool
	Score   float64 // confidence δ(arg, u) in (0, 1]
}

// Linker links mentions to graph vertices. Build one per graph with New;
// it is safe for concurrent use after construction.
type Linker struct {
	vocab vocab // label token or noun lemma → token ID

	// For a token t of the n in the vocabulary, postings[postOff[t]:
	// postOff[t+1]] are the ascending slots with a label that contains raw
	// token t. A token's lemma-only postings, the ascending slots with t in
	// a label's lemma set and in no label's raw set ("city" of a slot
	// labelled "cities"), follow the raw ones in postings; most tokens have
	// none, so only the tokens that have some are listed, in lemRanges.
	postOff, postings []uint32
	lemRanges         []lemmaRange

	// Slot s is one linkable vertex: its ID, whether it links as a class,
	// its degree (its prior is deg[s]/maxDeg, see prior), and its labels
	// lab[s][0]:lab[s][1].
	id      []store.ID
	isClass []bool
	deg     []uint32
	maxDeg  float64
	lab     [][2]uint32

	// classes partition the slots in order of (lo, hi); inside one, slots
	// run by descending prior, then ascending ID.
	classes []sizeClass

	// Label i's raw token IDs are toks[tokOff[i]:lemOff[i]] and its lemma
	// IDs toks[lemOff[i]:tokOff[i+1]], each sorted and de-duplicated.
	tokOff, lemOff, toks []uint32
}

// lemmaRange is a token's lemma-only postings, postings[at:end].
type lemmaRange struct{ tok, at, end uint32 }

// lemmaOnly returns token t's lemma-only postings as a range of postings,
// empty for a token with none.
func (l *Linker) lemmaOnly(t uint32) (at, end uint32) {
	i, ok := slices.BinarySearchFunc(l.lemRanges, t, func(r lemmaRange, t uint32) int { return cmp.Compare(r.tok, t) })
	if !ok {
		return 0, 0
	}
	return l.lemRanges[i].at, l.lemRanges[i].end
}

// prior is slot s's popularity prior: its degree over the largest, in
// [0, 1], and 0 when no slot has an edge (a class keeps its slot after its
// last type edge goes). The division rounds alike at every call, so the
// stop rule's bound and a candidate's score read one prior for s.
func (l *Linker) prior(s uint32) float64 {
	if l.maxDeg == 0 {
		return 0
	}
	return float64(l.deg[s]) / l.maxDeg
}

// sizeClass is the slots start:end whose label sets, raw and lemma alike,
// have at fewest lo and at most hi tokens.
type sizeClass struct {
	lo, hi     int
	start, end uint32
}

// minSimilarity is the lowest token-set similarity admitted as a candidate:
// it permits 1-of-3-token overlaps such as "Philadelphia" → "Philadelphia
// 76ers".
const minSimilarity = 0.34

// Options is empty: linking has nothing to tune. The type remains because
// New's signature is compiled against outside this module's build
// (benchmark/trace.go); ROADMAP item 7(f) removes it.
type Options struct{}

// vocab gives every label token and noun lemma of one a token ID, its
// position in first-seen order. It is the term table's shape (store's
// terms.go) cut down to one string key: the tokens back to back in one
// string, their offsets, and an open-addressed index of IDs.
type vocab struct {
	words string   // token i is words[off[i]:off[i+1]]
	off   []uint32 // len+1 offsets into words once a token is in

	// index is open-addressed with linear probing: a slot holds ID+1, 0 is
	// empty; a power of two at most ¾ full.
	index []uint32
	seed  maphash.Seed
}

// len is the number of tokens.
func (v *vocab) len() int { return max(len(v.off)-1, 0) }

// word returns token id's text.
func (v *vocab) word(id uint32) string { return v.words[v.off[id]:v.off[id+1]] }

// lookup returns t's token ID, or false when t is not in the vocabulary.
func (v *vocab) lookup(t string) (uint32, bool) {
	if len(v.index) == 0 {
		return 0, false
	}
	_, e := v.find(t)
	return e - 1, e != 0
}

// find probes for t: the slot holding its ID+1 and that entry, or the
// empty slot where t would go and 0. A probe compares the full bytes.
func (v *vocab) find(t string) (int, uint32) {
	mask := len(v.index) - 1
	for slot := int(maphash.String(v.seed, t)) & mask; ; slot = (slot + 1) & mask {
		e := v.index[slot]
		if e == 0 || v.word(e-1) == t {
			return slot, e
		}
	}
}

// intern returns t's token ID, appending t to words (whose bytes v.words
// holds) on first sight.
func (v *vocab) intern(words *strings.Builder, t string) uint32 {
	if n := v.len() + 1; 4*n > 3*len(v.index) {
		v.rehash(n)
	}
	slot, e := v.find(t)
	if e != 0 {
		return e - 1
	}
	if len(v.off) == 0 {
		v.off = append(v.off, 0)
	}
	words.WriteString(t)
	v.words = words.String()
	v.off = append(v.off, uint32(len(v.words)))
	v.index[slot] = uint32(v.len())
	return uint32(v.len() - 1)
}

// rehash rebuilds the index at the least power of two, at least 8, that n
// IDs fill at most ¾ of.
func (v *vocab) rehash(n int) {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	if v.index == nil {
		v.seed = maphash.MakeSeed()
	}
	v.index = make([]uint32, size)
	for id := range v.len() {
		slot, _ := v.find(v.word(uint32(id)))
		v.index[slot] = uint32(id) + 1
	}
}

// builder is what New needs and the Linker does not keep.
type builder struct {
	*Linker
	g     *store.Graph
	slot  []uint32        // vertex ID → slot+1; 0 while the vertex has none
	words strings.Builder // the vocabulary's words while it grows
	lemma []uint32        // token ID → its lemma's token ID, once seen in a label
	buf   []string
}

const noLemma = ^uint32(0)

// New indexes all entities and classes of g, and the literals that are
// data values, as they are now: the Linker is a snapshot of g (see the
// package comment), and g may be mutated or dropped after New returns.
func New(g *store.Graph, _ Options) *Linker {
	b := &builder{
		Linker: &Linker{tokOff: []uint32{0}},
		g:      g,
		slot:   make([]uint32, g.NumTerms()),
	}
	// The frozen view serves the precomputed entity list, and the literal
	// pass below answers from its degrees, so indexing a large graph skips
	// per-vertex map probes and adjacency walks.
	view := g.FrozenView()
	for _, id := range view.Entities() {
		b.index(id, false)
	}
	for _, id := range g.Classes() {
		b.index(id, true)
	}
	// Literal vertices are linkable too: questions can name a literal
	// object directly ("Who was called Scarface?" — the nickname is a
	// string). DBpedia Lookup resolves such mentions through labels; here
	// the literal's own text is its label.
	for v := 0; v < g.NumTerms(); v++ {
		id := store.ID(v)
		if !g.Term(id).IsLiteral() || g.Degree(id) == 0 {
			continue
		}
		// Pure rdfs:label strings are names of other vertices, not data
		// values; indexing them would only duplicate their owners.
		// Any in-edge besides rdfs:label ones marks a data value; two
		// O(log d) degree reads answer that without walking adjacency.
		dataValue := view.InDegree(id) > view.InPredDegree(id, g.LabelPredID())
		if dataValue {
			b.index(id, false)
		}
	}
	b.deg = make([]uint32, len(b.id))
	for s, id := range b.id {
		b.deg[s] = uint32(g.Degree(id))
		b.maxDeg = max(b.maxDeg, float64(b.deg[s]))
	}
	b.renumber()
	b.post()
	// The arrays New appended to are copied to their length: the Linker
	// keeps no growth slack.
	l := b.Linker
	l.vocab.words, l.vocab.off = strings.Clone(l.vocab.words), slices.Clone(l.vocab.off)
	l.toks, l.tokOff, l.lemOff = slices.Clone(l.toks), slices.Clone(l.tokOff), slices.Clone(l.lemOff)
	l.id, l.isClass, l.lab = slices.Clone(l.id), slices.Clone(l.isClass), slices.Clone(l.lab)
	return l
}

// index gives id a slot holding its distinct labels. A vertex indexed
// again (an entity that is also a class) keeps its labels and takes the
// class flag of this pass.
func (b *builder) index(id store.ID, isClass bool) {
	if s := b.slot[id]; s > 0 {
		b.isClass[s-1] = isClass
		return
	}
	first := len(b.lemOff)
	b.addLabel(first, b.g.Term(id).Label())
	if lp := b.g.LabelPredID(); lp != store.None {
		for _, e := range b.g.Out(id) {
			if e.Pred == lp && b.g.Term(e.To).IsLiteral() {
				b.addLabel(first, b.g.Term(e.To).Value())
			}
		}
	}
	if len(b.lemOff) == first {
		return // no label has a token: nothing links to it
	}
	b.id = append(b.id, id)
	b.isClass = append(b.isClass, isClass)
	b.lab = append(b.lab, [2]uint32{uint32(first), uint32(len(b.lemOff))})
	b.slot[id] = uint32(len(b.id))
}

// addLabel appends label's two token-ID sets unless it has no token or
// the vertex's labels from first on already hold its raw set.
func (b *builder) addLabel(first int, label string) {
	b.buf = appendTokens(b.buf[:0], label)
	if len(b.buf) == 0 {
		return
	}
	start := len(b.toks)
	for _, t := range b.buf {
		id := b.tokenID(t)
		if b.lemma[id] == noLemma { // a token's lemma is looked up once
			lem := b.tokenID(nlp.Lemma(t, "NNS")) // may grow b.lemma
			b.lemma[id] = lem
		}
		b.toks = append(b.toks, id)
	}
	raw := sortedSet(b.toks[start:])
	for i := first; i < len(b.lemOff); i++ {
		if slices.Equal(b.toks[b.tokOff[i]:b.lemOff[i]], raw) {
			b.toks = b.toks[:start]
			return
		}
	}
	mid := start + len(raw)
	b.toks = b.toks[:mid]
	for _, t := range raw {
		b.toks = append(b.toks, b.lemma[t])
	}
	b.toks = b.toks[:mid+len(sortedSet(b.toks[mid:]))]
	b.lemOff = append(b.lemOff, uint32(mid))
	b.tokOff = append(b.tokOff, uint32(len(b.toks)))
}

// tokenID returns t's token ID, adding t to the vocabulary if it is new.
func (b *builder) tokenID(t string) uint32 {
	id := b.vocab.intern(&b.words, t)
	if int(id) == len(b.lemma) {
		b.lemma = append(b.lemma, noLemma)
	}
	return id
}

// renumber orders the slots by size class, then by descending prior (that
// is, degree), then by ascending ID, and records each class's range. A label's lemma set is
// the image of its raw set, never larger, so a slot's class runs from its
// smallest lemma set to its largest raw set. The class is the slot's, not
// a label's: a slot reached through one label is scored on all of them.
// Only the slot arrays move; the labels stay where addLabel put them.
func (b *builder) renumber() {
	type slot struct {
		lo, hi  int
		id      store.ID
		isClass bool
		deg     uint32
		lab     [2]uint32
	}
	slots := make([]slot, len(b.id))
	for s, r := range b.lab {
		k := slot{lo: math.MaxInt, id: b.id[s], isClass: b.isClass[s], deg: b.deg[s], lab: r}
		for i := r[0]; i < r[1]; i++ {
			k.lo = min(k.lo, int(b.tokOff[i+1]-b.lemOff[i]))
			k.hi = max(k.hi, int(b.lemOff[i]-b.tokOff[i]))
		}
		slots[s] = k
	}
	slices.SortFunc(slots, func(x, y slot) int {
		return cmp.Or(x.lo-y.lo, x.hi-y.hi, cmp.Compare(y.deg, x.deg), cmp.Compare(x.id, y.id))
	})
	for s, k := range slots {
		b.id[s], b.isClass[s], b.deg[s], b.lab[s] = k.id, k.isClass, k.deg, k.lab
		if s == 0 || k.lo != slots[s-1].lo || k.hi != slots[s-1].hi {
			b.classes = append(b.classes, sizeClass{lo: k.lo, hi: k.hi, start: uint32(s)})
		}
		b.classes[len(b.classes)-1].end = uint32(s) + 1
	}
}

// post lays out the postings: a counting pass over every slot's label
// sets, then a filling one. Slots are visited in ascending order, so each
// list comes out sorted. A slot's raw sets are visited before its lemma
// sets, and a token met twice in one slot counts once, so a lemma still
// unmarked after the raw sets is lemma-only. The raw lists are counted
// straight into postOff and the lemma-only ones apart, in lem; each count
// becomes its list's start, which the fill advances to the list's end.
// The raw ends, shifted up one, are the raw offsets; the lemma-only lists
// follow the raw ones in postings, so each starts where the one before it
// ends, and only the non-empty ones are kept as ranges.
func (b *builder) post() {
	n := b.vocab.len()
	last := make([]uint32, n) // token ID → slot+1 that last reached it
	each := func(visit func(lemmaOnly bool, t, s uint32)) {
		clear(last)
		for s, r := range b.lab {
			for side := range 2 { // 0: raw sets, 1: lemma sets
				for i := r[0]; i < r[1]; i++ {
					set := b.toks[b.tokOff[i]:b.lemOff[i]]
					if side == 1 {
						set = b.toks[b.lemOff[i]:b.tokOff[i+1]]
					}
					for _, t := range set {
						if last[t] != uint32(s)+1 {
							last[t] = uint32(s) + 1
							visit(side == 1, t, uint32(s))
						}
					}
				}
			}
		}
	}
	b.postOff = make([]uint32, n+1)
	lem := make([]uint32, n)
	each(func(lemmaOnly bool, t, _ uint32) {
		if lemmaOnly {
			lem[t]++
		} else {
			b.postOff[t+1]++
		}
	})
	for t := range n {
		b.postOff[t+1] += b.postOff[t]
	}
	at := b.postOff[n]
	for t, c := range lem {
		lem[t], at = at, at+c
	}
	b.postings = make([]uint32, at)
	each(func(lemmaOnly bool, t, s uint32) {
		next := &b.postOff[t]
		if lemmaOnly {
			next = &lem[t]
		}
		b.postings[*next] = s
		*next++
	})
	copy(b.postOff[1:], b.postOff[:n])
	b.postOff[0] = 0
	at = b.postOff[n]
	for t, end := range lem {
		if at < end {
			b.lemRanges = append(b.lemRanges, lemmaRange{tok: uint32(t), at: at, end: end})
		}
		at = end
	}
	b.lemRanges = slices.Clip(b.lemRanges)
}

// appendTokens appends the tokens of s to dst: lowercased, split around
// every rune that is neither a letter nor a digit, stop words dropped.
// Each token is a slice of s lowered once.
func appendTokens(dst []string, s string) []string {
	s = strings.ToLower(s)
	start := -1 // the first byte of the token being read, or -1
	for i, r := range s {
		in := unicode.IsLetter(r) || unicode.IsDigit(r)
		switch {
		case in && start < 0:
			start = i
		case !in && start >= 0:
			dst = appendToken(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = appendToken(dst, s[start:])
	}
	return dst
}

// appendToken appends token f to dst unless it is a stop word.
func appendToken(dst []string, f string) []string {
	switch f {
	case "the", "a", "an", "of":
		return dst
	}
	return append(dst, f)
}

// sortedSet sorts s in place and returns its distinct prefix.
func sortedSet[E cmp.Ordered](s []E) []E {
	slices.Sort(s)
	return slices.Compact(s)
}

// query is a tokenised mention: its distinct raw tokens and their noun
// lemmas as sorted token IDs, and how many distinct tokens each set has —
// a token no label has counts in the size but matches nothing.
type query struct {
	raw, lem   []uint32
	nRaw, nLem int
}

// query tokenises text; a text with no token gives nRaw == 0. The raw
// and lemma IDs are appended to ids, one set after the other. The token
// and lemma strings are on the stack while they fit there.
func (l *Linker) query(text string, ids []uint32) query {
	var tokBuf, lemBuf [8]string
	toks := sortedSet(appendTokens(tokBuf[:0], text))
	if len(toks) == 0 {
		return query{}
	}
	lems := lemBuf[:0]
	for _, t := range toks {
		lems = append(lems, nlp.Lemma(t, "NNS"))
	}
	lems = sortedSet(lems)
	ids = l.appendIDs(ids, toks)
	nRaw := len(ids)
	ids = l.appendIDs(ids, lems)
	return query{raw: ids[:nRaw], lem: ids[nRaw:], nRaw: len(toks), nLem: len(lems)}
}

// Link returns up to limit candidates for the mention, ranked by
// descending confidence, ties by ascending ID; none when limit ≤ 0. A
// caller that wants every candidate passes a limit of at least the
// linkable vertices.
func (l *Linker) Link(mention string, limit int) []Candidate {
	start := time.Now()
	out, _ := l.link(mention, limit)
	linkTotal.Inc()
	linkCandidates.Add(int64(len(out)))
	linkSeconds.ObserveDuration(time.Since(start))
	return out
}

// work is what one link did, counted without a clock: the slots whose
// labels it read, the posting entries it inspected (heads compared plus
// gallop probes), the postings its gallops passed beyond a list's head,
// the slots that met a threshold only on lemma-only lists, and how often
// the kept array outgrew the size its first keep gave it (never, while
// that size is a bound).
type work struct{ scored, read, jumped, unreached, grown int }

// link is Link without its metrics; it also returns what it did.
func (l *Linker) link(text string, limit int) ([]Candidate, work) {
	var w work
	if limit <= 0 {
		return nil, w
	}
	var ids [16]uint32
	m := l.query(text, ids[:0])
	if m.nRaw == 0 {
		return nil, w
	}

	lists := make([]list, 0, 8)
	var union [16]uint32
	reach := 0 // the postings that reach a slot: at least the slots a call keeps
	for _, t := range sortedSet(append(append(union[:0], m.raw...), m.lem...)) {
		ls := list{at: l.postOff[t], end: l.postOff[t+1], reaches: true}
		if ls.at == ls.end {
			continue
		}
		reach += int(ls.end - ls.at)
		if slices.Contains(m.raw, t) {
			ls.raw = 1
		}
		if slices.Contains(m.lem, t) {
			ls.lem = 1
		}
		lists = append(lists, ls)
	}
	if len(lists) == 0 {
		return nil, w
	}
	for _, t := range m.lem {
		if at, end := l.lemmaOnly(t); at < end {
			lists = append(lists, list{at: at, end: end, lem: 1})
		}
	}
	// A class whose reach is below minSimilarity holds no candidate; the
	// others go best reach first, so the kept slice fills with high scores.
	// lists, order, sub and the head buffers get constant capacities so
	// that they live on the stack for the few classes and mention tokens a
	// call usually has: on a small KB their allocations cost more than the
	// walk saves.
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
	sub := make([]list, 0, 8)
	var rawHeads, lemHeads [len(noSlots)]uint32
	for _, v := range order {
		// The class's stretch of every list.
		sub = sub[:0]
		for _, ls := range lists {
			p := l.postings[ls.at:ls.end]
			i, _ := slices.BinarySearch(p, v.start)
			if j, _ := slices.BinarySearch(p[i:], v.end); j > 0 {
				ls.at, ls.end = ls.at+uint32(i), ls.at+uint32(i+j)
				sub = append(sub, ls)
			}
		}
		if len(sub) == 0 {
			continue // no list reaches the class: skip its thresholds
		}
		classReach := 0 // the postings of the class's stretch that reach a slot
		for _, ls := range sub {
			if ls.reaches {
				classReach += int(ls.end - ls.at)
			}
		}
		// A slot of the class can pass only on at least tRaw raw lists or
		// tLem lemma lists (see threshold). The walk may use any smaller
		// counts, so they are cut to the head buffers' length.
		tRaw, tLem := min(v.threshold(m.nRaw), len(rawHeads)), min(v.threshold(m.nLem), len(lemHeads))
		rawTop, lemTop := rawHeads[:tRaw], lemHeads[:tLem]
		counts, sim := [2]int{-1, -1}, 0.0
		for {
			// The T-occurrence skip (MergeSkip, Li, Lu and Lu, ICDE 2008):
			// the next slot to look at, h, is the smaller of the tRaw-th
			// least raw-list head and the tLem-th least lemma-list head. A
			// slot below h is on fewer than tRaw raw lists and fewer than
			// tLem lemma lists, so its cap is below minSimilarity and the
			// skip below would pass it unread. With t = 1 on both sides, h
			// is the least head and the walk is a k-way merge.
			rawHeads, lemHeads = noSlots, noSlots
			for _, ls := range sub {
				head := l.postings[ls.at]
				if ls.raw == 1 && head < rawTop[tRaw-1] {
					keepLeast(rawTop, head)
				}
				if ls.lem == 1 && head < lemTop[tLem-1] {
					keepLeast(lemTop, head)
				}
			}
			w.read += len(sub)
			h := min(rawTop[tRaw-1], lemTop[tLem-1])
			if h == noSlot {
				break // too few lists are left on either side
			}
			// Every list below h gallops to it; the lists on h are counted
			// and step past it; the spent ones are dropped.
			var cRaw, cLem int32
			reached := false
			for i := 0; i < len(sub); {
				ls := &sub[i]
				if l.postings[ls.at] < h {
					at, probes := gallop(l.postings, ls.at, ls.end, h)
					w.read, w.jumped = w.read+probes, w.jumped+int(at-ls.at-1)
					ls.at = at
				}
				if ls.at < ls.end && l.postings[ls.at] == h {
					cRaw, cLem, reached = cRaw+ls.raw, cLem+ls.lem, reached || ls.reaches
					ls.at++
				}
				if ls.at == ls.end {
					sub[i] = sub[len(sub)-1]
					sub = sub[:len(sub)-1]
					continue
				}
				i++
			}
			// Short of both thresholds, h's cap is below minSimilarity, and
			// the test spares the cap's divisions. On lemma-only lists alone
			// h is not reached: none of the mention's tokens and lemmas is
			// a raw token of h.
			if int(cRaw) < tRaw && int(cLem) < tLem {
				continue
			}
			if !reached {
				w.unreached++
				continue
			}
			// A label of s shares at most cRaw raw tokens with the mention,
			// one per raw-token list s is on, and at most cLem lemmas, one
			// per lemma list: a shared lemma that s spells raw puts s on its
			// raw postings, one it does not on its lemma-only postings.
			// bound turns the counts into a cap on every label's
			// similarity. The cap depends on s only through its counts,
			// which most slots of a class share, so it is recomputed when
			// they change.
			s := h
			if c := [2]int{int(cRaw), int(cLem)}; c != counts {
				counts, sim = c, max(v.bound(c[0], m.nRaw), v.bound(c[1], m.nLem))
			}
			// The skip is exact: score rounds monotonically in sim, so a
			// skipped s is either below minSimilarity or ranks below the
			// k-th. It skips rather than stops, since a later slot may be on
			// more lists.
			if sim < minSimilarity {
				continue
			}
			if len(out) == limit &&
				rank(out[limit-1], Candidate{ID: l.id[s], Score: score(sim, l.prior(s))}) < 0 {
				// The stop is exact too. No slot from s on scores above
				// score(reach, prior(s)): its similarity is at most reach,
				// its prior at most prior(s), and score rounds monotonically
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
			w.scored++
			if c, ok := l.candidate(s, &m); ok {
				size := 0
				if out == nil {
					// The slots the walk can still pass: this one, what the
					// rest of the class's stretch can pass, and every
					// reaching posting outside the stretch.
					size = 1 + passable(sub, tRaw, tLem) + reach - classReach
				}
				at := cap(out)
				out = keep(out, c, limit, min(limit, size))
				if at > 0 && cap(out) != at {
					w.grown++
				}
			}
		}
	}
	return out, w
}

// A list is what is left of one postings list, postings[at:end]: a
// mention token's raw postings, counted on the raw side when the token is
// one of the mention's raw tokens and on the lemma side when it is one of
// its lemmas, or a mention lemma's lemma-only postings, counted on the
// lemma side. Only raw postings reach a slot: a slot is visited through a
// token of its raw sets, never through lemma-only postings.
type list struct {
	at, end  uint32
	raw, lem int32 // 1 when the list counts on that side
	reaches  bool
}

// passable bounds how many slots of one class's stretch of lists a walk
// with thresholds tRaw and tLem can pass. A slot that passes is on a
// reaching list, and on at least t = min(tRaw, tLem) of the lists, so it
// takes a posting from one outside the t−1 longest.
func passable(lists []list, tRaw, tLem int) int {
	var lens [32]int
	k, all, reach := 0, 0, 0
	for _, ls := range lists {
		n := int(ls.end - ls.at)
		if ls.reaches {
			reach += n
		}
		all += n
		if k < len(lens) {
			lens[k], k = n, k+1
		}
	}
	// Past 32 lists the longest are sought among the first 32 only, which
	// leaves a larger bound.
	slices.Sort(lens[:k])
	for _, n := range lens[max(k-(min(tRaw, tLem)-1), 0):k] {
		all -= n
	}
	return min(reach, all)
}

// noSlot is greater than every slot: a head buffer's empty entry.
const noSlot = math.MaxUint32

// noSlots is an empty head buffer.
var noSlots = [8]uint32{noSlot, noSlot, noSlot, noSlot, noSlot, noSlot, noSlot, noSlot}

// keepLeast adds x, which is below top's last entry, to top, the ascending
// least heads seen so far: an insertion select, since a side has only a
// few lists.
func keepLeast(top []uint32, x uint32) {
	i := len(top) - 1
	for ; i > 0 && top[i-1] > x; i-- {
		top[i] = top[i-1]
	}
	top[i] = x
}

// gallop returns the first index in [at, end) whose posting is at least
// h, or end, given postings p[at] < h, and how many postings it read. It
// doubles its step from at until a probe reaches h, then bisects the last
// step, so a jump over d postings reads about 2·log2(d) of them.
func gallop(p []uint32, at, end, h uint32) (uint32, int) {
	lo, hi, step, reads := at, end, uint32(1), 0
	// p[lo] < h, and hi == end or p[hi] ≥ h.
	for step < end-lo {
		reads++
		if p[lo+step] >= h {
			hi = lo + step
			break
		}
		lo += step
		step *= 2
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		reads++
		if p[mid] >= h {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, reads
}

// threshold is the T of the T-occurrence skip for a side of n mention
// tokens: the smallest k ≥ 1 with bound(k, n) ≥ minSimilarity, below
// which the side's cap of every slot of c is under minSimilarity. It
// takes the minimum over k, so it needs bound to be monotone in nothing.
// When no k ≤ n qualifies it is n+1, which no slot meets: a slot is on at
// most n lists of a side, since a mention lemma's raw and lemma-only
// postings never share a slot.
func (c *sizeClass) threshold(n int) int {
	k := 1
	for k <= n && c.bound(k, n) < minSimilarity {
		k++
	}
	return k
}

// reach bounds the similarity of a set of n tokens to any label set of c:
// min(n, L)/max(n, L) for the nearest size L in [lo, hi]. It rounds as
// similarity does, and a quotient rounds monotonically, so the bound holds
// on the float64s too.
func (c *sizeClass) reach(n int) float64 {
	switch {
	case n < c.lo:
		return float64(n) / float64(c.lo)
	case n > c.hi:
		return float64(c.hi) / float64(n)
	}
	return 1
}

// bound caps the similarity to any label set of c of a mention set of n
// tokens that shares at most inter of them. Jaccard inter/(n+L−inter)
// grows with inter and falls with L ≥ lo. While inter < min(n, lo) neither
// set can contain the other, so inter/(n+lo−inter) caps it; otherwise the
// intersection is at most min(inter, n) and the union at least n, which
// caps Jaccard and containment alike at min(inter, n)/n, and reach caps it
// as well. Each cap is a quotient whose integers bound similarity's own
// from above and below, and a quotient rounds monotonically, so the cap
// holds on the float64s too.
func (c *sizeClass) bound(inter, n int) float64 {
	if inter < min(n, c.lo) {
		return float64(inter) / float64(n+c.lo-inter)
	}
	return min(float64(min(inter, n))/float64(n), c.reach(n))
}

// appendIDs appends to ids the sorted token IDs of the distinct tokens
// toks that the vocabulary knows.
func (l *Linker) appendIDs(ids []uint32, toks []string) []uint32 {
	from := len(ids)
	for _, t := range toks {
		if id, ok := l.vocab.lookup(t); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids[from:])
	return ids
}

// candidate scores slot s against the mention: the best similarity over
// its labels, raw or lemma-compared, blended with its degree prior. An
// exact label match is dominated by similarity; popularity breaks ties
// among ambiguous referents ("Philadelphia" the city vs. the film).
func (l *Linker) candidate(s uint32, m *query) (Candidate, bool) {
	best, contained := 0.0, false
	for i := l.lab[s][0]; i < l.lab[s][1]; i++ {
		raw, lem := l.toks[l.tokOff[i]:l.lemOff[i]], l.toks[l.lemOff[i]:l.tokOff[i+1]]
		inLem := intersect(m.lem, lem)
		best = max(best, similarity(intersect(m.raw, raw), m.nRaw, len(raw)), similarity(inLem, m.nLem, len(lem)))
		contained = contained || inLem == m.nLem
	}
	if best < minSimilarity {
		return Candidate{}, false
	}
	// A class is a candidate only when the mention is (up to lemmas)
	// contained in one of its labels: "Argentine films" names the class
	// ⟨ArgentineFilm⟩, but "Gotham City" names an instance, not the class
	// ⟨City⟩ — a lookup service returns no class for it.
	if l.isClass[s] && !contained {
		return Candidate{}, false
	}
	return Candidate{ID: l.id[s], IsClass: l.isClass[s], Score: score(best, l.prior(s))}, true
}

// score blends similarity and prior. The stop rule's bound goes through it
// too, so the two round alike wherever the compiler fuses x*y + z.
func score(sim, prior float64) float64 {
	return 0.85*sim + 0.15*prior
}

// rank orders candidates by descending score, then ascending ID. A score
// is never NaN, so plain comparisons do, and rank inlines into the stop
// test that runs once per slot.
func rank(a, b Candidate) int {
	switch {
	case a.Score > b.Score || a.Score == b.Score && a.ID < b.ID:
		return -1
	case a.Score == b.Score && a.ID == b.ID:
		return 0
	}
	return 1
}

// keep adds c to out, which holds the best limit candidates seen so far,
// in rank order, in one array of capacity size made on the first keep,
// where size ≤ limit bounds how many candidates the call can find, so the
// array never grows.
func keep(out []Candidate, c Candidate, limit, size int) []Candidate {
	switch {
	case out == nil:
		out = make([]Candidate, 0, size)
	case len(out) == limit:
		if rank(c, out[limit-1]) > 0 {
			return out
		}
		out = out[:limit-1] // the last leaves, so the insert stays in place
	}
	i, _ := slices.BinarySearchFunc(out, c, rank)
	return slices.Insert(out, i, c)
}

// intersect counts the elements two sorted, de-duplicated sets share.
func intersect(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// similarity is the Jaccard coefficient of two token sets of sizes na and
// nb sharing inter tokens, with a containment boost: a set fully contained
// in the other scores at least |small| / |large|.
func similarity(inter, na, nb int) float64 {
	if inter == 0 {
		return 0
	}
	union := na + nb - inter
	j := float64(inter) / float64(union)
	small, large := na, nb
	if small > large {
		small, large = large, small
	}
	if inter == small { // containment
		if c := float64(small) / float64(large); c > j {
			j = c
		}
	}
	return j
}
