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
// The index is flat arrays built once by New. A vocabulary gives every
// label token and every noun lemma of one a token ID; each linkable vertex
// is a slot holding its ID, class flag, degree prior and labels; each label
// is two sorted sets of token IDs, raw and lemma; and each token has the
// ascending slots whose labels contain it. Link merges the postings of the
// mention's tokens and scores the slots it meets from intersection counts.
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
// Link reads only the labels that can pass. The merge counts, per slot,
// how many of the mention's raw-token and lemma postings it is on; a label
// shares no more raw tokens than the first count, and no more lemmas than
// the second plus the slot's lemma-only IDs the mention has (a lemma no
// raw token of the slot spells, as "city" of "cities", is on no list of
// that slot). With the class's smallest set size those counts cap the
// similarity of every label of the slot, and Link skips a slot whose cap
// is below minSimilarity or cannot rank above the k-th: a name whose three
// tokens a slot shares one of is skipped unread.
//
// Snapshot rule: a Linker is the graph as it was when New ran — labels,
// class flags and degrees alike. It holds no reference to the graph, so a
// later mutation reaches linking only through a new Linker.
package linker

import (
	"cmp"
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
	vocab map[string]uint32 // label token or noun lemma → token ID

	// postings[postOff[t]:postOff[t+1]] are the ascending slots with a
	// label that contains raw token t.
	postOff, postings []uint32

	// Slot s is one linkable vertex: its ID, whether it links as a class,
	// its degree prior, and its labels lab[s][0]:lab[s][1].
	id      []store.ID
	isClass []bool
	prior   []float64
	lab     [][2]uint32

	// classes partition the slots in order of (lo, hi); inside one, slots
	// run by descending prior, then ascending ID.
	classes []sizeClass

	// Label i's raw token IDs are toks[tokOff[i]:lemOff[i]] and its lemma
	// IDs toks[lemOff[i]:tokOff[i+1]], each sorted and de-duplicated.
	tokOff, lemOff, toks []uint32

	// lemOnly[lemOnlyOff[s]:lemOnlyOff[s+1]] are the ascending lemma IDs of
	// slot s's labels that are none of its raw tokens ("city" of a slot
	// labelled "cities"): a mention lemma a label of s can share without s
	// being on that lemma's postings. Most slots have none.
	lemOnlyOff, lemOnly []uint32
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

// builder is what New needs and the Linker does not keep.
type builder struct {
	*Linker
	g     *store.Graph
	slot  []uint32 // vertex ID → slot+1; 0 while the vertex has none
	lemma []uint32 // token ID → its lemma's token ID, once seen in a label
	buf   []string
}

const noLemma = ^uint32(0)

// New indexes all entities and classes of g, and the literals that are
// data values, as they are now: the Linker is a snapshot of g (see the
// package comment), and g may be mutated or dropped after New returns.
func New(g *store.Graph, _ Options) *Linker {
	b := &builder{
		Linker: &Linker{vocab: make(map[string]uint32), tokOff: []uint32{0}},
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
	maxDeg := 0.0
	for _, id := range b.id {
		maxDeg = max(maxDeg, float64(g.Degree(id)))
	}
	b.prior = make([]float64, len(b.id))
	if maxDeg > 0 {
		for s, id := range b.id {
			b.prior[s] = float64(g.Degree(id)) / maxDeg
		}
	}
	b.renumber()
	b.post()
	return b.Linker
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
	id, ok := b.vocab[t]
	if !ok {
		id = uint32(len(b.vocab))
		b.vocab[strings.Clone(t)] = id
		b.lemma = append(b.lemma, noLemma)
	}
	return id
}

// renumber orders the slots by size class, then by descending prior, then
// by ascending ID, and records each class's range. A label's lemma set is
// the image of its raw set, never larger, so a slot's class runs from its
// smallest lemma set to its largest raw set. The class is the slot's, not
// a label's: a slot reached through one label is scored on all of them.
// Inside a class a slot sorts as a candidate whose score is its prior.
// Only the slot arrays move; the labels stay where addLabel put them.
func (b *builder) renumber() {
	type slot struct {
		lo, hi int
		c      Candidate // Score holds the prior
		lab    [2]uint32
	}
	slots := make([]slot, len(b.id))
	for s, r := range b.lab {
		k := slot{lo: math.MaxInt, c: Candidate{b.id[s], b.isClass[s], b.prior[s]}, lab: r}
		for i := r[0]; i < r[1]; i++ {
			k.lo = min(k.lo, int(b.tokOff[i+1]-b.lemOff[i]))
			k.hi = max(k.hi, int(b.lemOff[i]-b.tokOff[i]))
		}
		slots[s] = k
	}
	slices.SortFunc(slots, func(x, y slot) int {
		return cmp.Or(x.lo-y.lo, x.hi-y.hi, rank(x.c, y.c))
	})
	for s, k := range slots {
		b.id[s], b.isClass[s], b.prior[s], b.lab[s] = k.c.ID, k.c.IsClass, k.c.Score, k.lab
		if s == 0 || k.lo != slots[s-1].lo || k.hi != slots[s-1].hi {
			b.classes = append(b.classes, sizeClass{lo: k.lo, hi: k.hi, start: uint32(s)})
		}
		b.classes[len(b.classes)-1].end = uint32(s) + 1
	}
}

// post lays out the postings: a counting pass over every slot's raw sets,
// then a filling one. Slots are visited in ascending order, so each list
// comes out sorted, and a token met twice in one slot counts once. The
// filling pass also collects each slot's lemma-only IDs: once a slot's raw
// tokens are marked, a lemma still unmarked is none of them.
func (b *builder) post() {
	n := len(b.vocab)
	last := make([]uint32, n) // token ID → slot+1 that last reached it
	each := func(visit func(t, s uint32), done func(s uint32)) {
		clear(last)
		for s, r := range b.lab {
			for i := r[0]; i < r[1]; i++ {
				for _, t := range b.toks[b.tokOff[i]:b.lemOff[i]] {
					if last[t] != uint32(s)+1 {
						last[t] = uint32(s) + 1
						visit(t, uint32(s))
					}
				}
			}
			done(uint32(s))
		}
	}
	b.postOff = make([]uint32, n+1)
	each(func(t, _ uint32) { b.postOff[t+1]++ }, func(uint32) {})
	for t := range n {
		b.postOff[t+1] += b.postOff[t]
	}
	b.postings = make([]uint32, b.postOff[n])
	next := slices.Clone(b.postOff[:n])
	b.lemOnlyOff = make([]uint32, 1, len(b.lab)+1)
	each(func(t, s uint32) {
		b.postings[next[t]] = s
		next[t]++
	}, func(s uint32) {
		start := len(b.lemOnly)
		for i := b.lab[s][0]; i < b.lab[s][1]; i++ {
			for _, t := range b.toks[b.lemOff[i]:b.tokOff[i+1]] {
				if last[t] != s+1 {
					last[t] = s + 1
					b.lemOnly = append(b.lemOnly, t)
				}
			}
		}
		slices.Sort(b.lemOnly[start:])
		b.lemOnlyOff = append(b.lemOnlyOff, uint32(len(b.lemOnly)))
	})
}

// appendTokens appends the tokens of s to dst: lowercased, split around
// every rune that is neither a letter nor a digit, stop words dropped.
func appendTokens(dst []string, s string) []string {
	for _, f := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		switch f {
		case "the", "a", "an", "of":
			continue
		}
		dst = append(dst, f)
	}
	return dst
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

// query tokenises text; a text with no token gives nRaw == 0.
func (l *Linker) query(text string) query {
	toks := sortedSet(appendTokens(nil, text))
	if len(toks) == 0 {
		return query{}
	}
	lems := make([]string, len(toks))
	for i, t := range toks {
		lems[i] = nlp.Lemma(t, "NNS")
	}
	lems = sortedSet(lems)
	return query{raw: l.ids(toks), lem: l.ids(lems), nRaw: len(toks), nLem: len(lems)}
}

// Link returns up to limit candidates for the mention, ranked by
// descending confidence, ties by ascending ID. A limit ≤ 0 means no cap.
func (l *Linker) Link(mention string, limit int) []Candidate {
	start := time.Now()
	out, _ := l.link(mention, limit)
	linkTotal.Inc()
	linkCandidates.Add(int64(len(out)))
	linkSeconds.ObserveDuration(time.Since(start))
	return out
}

// link is Link without its metrics; it also returns how many slots'
// labels it read.
func (l *Linker) link(text string, limit int) ([]Candidate, int) {
	m := l.query(text)
	if m.nRaw == 0 {
		return nil, 0
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
		return nil, 0
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
	scored := 0
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
				rank(out[limit-1], Candidate{ID: l.id[s], Score: score(sim, l.prior[s])}) < 0 {
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
				if rank(out[limit-1], Candidate{ID: l.id[s], Score: score(v.reach, l.prior[s])}) < 0 {
					break
				}
				continue
			}
			scored++
			if c, ok := l.candidate(s, &m); ok {
				out = keep(out, c, limit)
			}
		}
	}
	if limit <= 0 {
		slices.SortFunc(out, rank)
	}
	return out, scored
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

// ids returns the sorted token IDs of the distinct tokens toks that the
// vocabulary knows.
func (l *Linker) ids(toks []string) []uint32 {
	out := make([]uint32, 0, len(toks))
	for _, t := range toks {
		if id, ok := l.vocab[t]; ok {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
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
	return Candidate{ID: l.id[s], IsClass: l.isClass[s], Score: score(best, l.prior[s])}, true
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

// keep adds c to out. With limit > 0, out holds the best limit candidates
// seen so far, in rank order; otherwise it collects everything unsorted.
func keep(out []Candidate, c Candidate, limit int) []Candidate {
	if limit <= 0 {
		return append(out, c)
	}
	if len(out) == limit && rank(c, out[limit-1]) > 0 {
		return out
	}
	i, _ := slices.BinarySearchFunc(out, c, rank)
	out = slices.Insert(out, i, c)
	return out[:min(len(out), limit)]
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
