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
package linker

import (
	"sort"
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
	g       *store.Graph
	byToken map[string][]store.ID // normalized token → vertex IDs
	labels  map[store.ID][][]string
	isClass map[store.ID]bool
	maxDeg  float64
}

// minSimilarity is the lowest token-set similarity admitted as a candidate:
// it permits 1-of-3-token overlaps such as "Philadelphia" → "Philadelphia
// 76ers".
const minSimilarity = 0.34

// Options is empty: linking has nothing to tune. The type remains because
// New's signature is compiled against outside this module's build
// (benchmark/trace.go); ROADMAP item 7(f) removes it.
type Options struct{}

// New indexes all entities and classes of g.
func New(g *store.Graph, _ Options) *Linker {
	l := &Linker{
		g:       g,
		byToken: make(map[string][]store.ID),
		labels:  make(map[store.ID][][]string),
		isClass: make(map[store.ID]bool),
	}
	// The frozen view serves the precomputed entity list, and the literal
	// pass below answers from its degrees, so indexing a large graph skips
	// per-vertex map probes and adjacency walks.
	view := g.FrozenView()
	for _, id := range view.Entities() {
		l.index(id, false)
	}
	for _, id := range g.Classes() {
		l.index(id, true)
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
			l.index(id, false)
		}
	}
	for id := range l.labels {
		if d := float64(g.Degree(id)); d > l.maxDeg {
			l.maxDeg = d
		}
	}
	return l
}

func (l *Linker) index(id store.ID, isClass bool) {
	l.isClass[id] = isClass
	seen := make(map[string]bool)
	addLabel := func(label string) {
		toks := normalizeTokens(label)
		if len(toks) == 0 {
			return
		}
		key := strings.Join(toks, " ")
		if seen[key] {
			return
		}
		seen[key] = true
		l.labels[id] = append(l.labels[id], toks)
		for _, tok := range dedupe(toks) {
			l.byToken[tok] = append(l.byToken[tok], id)
		}
	}
	addLabel(l.g.Term(id).Label())
	if lp := l.g.LabelPredID(); lp != store.None {
		for _, e := range l.g.Out(id) {
			if e.Pred == lp && l.g.Term(e.To).IsLiteral() {
				addLabel(l.g.Term(e.To).Value())
			}
		}
	}
}

// normalizeTokens lowercases, strips punctuation, splits on whitespace and
// underscores, and adds noun lemmas so "movies" meets the class label
// "movie". Each surface token contributes itself and (when different) its
// lemma.
func normalizeTokens(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	var out []string
	for _, f := range fields {
		if isStopToken(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func isStopToken(w string) bool {
	switch w {
	case "the", "a", "an", "of":
		return true
	}
	return false
}

func dedupe(ws []string) []string {
	seen := make(map[string]bool, len(ws))
	var out []string
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// Link returns up to limit candidates for the mention, ranked by
// descending confidence. A limit ≤ 0 means no cap.
func (l *Linker) Link(mention string, limit int) []Candidate {
	start := time.Now()
	linkTotal.Inc()
	mToks := normalizeTokens(mention)
	if len(mToks) == 0 {
		return nil
	}
	mLemmas := lemmaSet(mToks)

	// Gather candidates sharing at least one token (raw or lemma).
	cand := make(map[store.ID]struct{})
	for _, t := range append(dedupe(mToks), mLemmas...) {
		for _, id := range l.byToken[t] {
			cand[id] = struct{}{}
		}
	}
	var out []Candidate
	for id := range cand {
		best := 0.0
		for _, lToks := range l.labels[id] {
			s := similarity(mToks, lToks)
			if ls := similarity(mLemmas, lemmaSet(lToks)); ls > s {
				s = ls
			}
			if s > best {
				best = s
			}
		}
		if best < minSimilarity {
			continue
		}
		// A class is a candidate only when the mention is (up to lemmas)
		// contained in one of its labels: "Argentine films" names the
		// class ⟨ArgentineFilm⟩, but "Gotham City" names an instance, not
		// the class ⟨City⟩ — a lookup service returns no class for it.
		if l.isClass[id] && !l.mentionContained(mLemmas, id) {
			continue
		}
		out = append(out, Candidate{
			ID:      id,
			IsClass: l.isClass[id],
			Score:   l.score(best, id),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	linkCandidates.Add(int64(len(out)))
	linkSeconds.ObserveDuration(time.Since(start))
	return out
}

// score blends similarity with the degree prior. An exact label match is
// dominated by similarity; popularity breaks ties among ambiguous
// referents ("Philadelphia" the city vs. the film).
func (l *Linker) score(sim float64, id store.ID) float64 {
	prior := 0.0
	if l.maxDeg > 0 {
		prior = float64(l.g.Degree(id)) / l.maxDeg
	}
	return 0.85*sim + 0.15*prior
}

// mentionContained reports whether every mention lemma occurs in some
// single label of id (lemma-compared).
func (l *Linker) mentionContained(mLemmas []string, id store.ID) bool {
	for _, lToks := range l.labels[id] {
		lset := make(map[string]bool)
		for _, t := range lemmaSet(lToks) {
			lset[t] = true
		}
		all := true
		for _, m := range mLemmas {
			if !lset[m] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func lemmaSet(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = nlp.Lemma(t, "NNS")
	}
	return dedupe(out)
}

// similarity is the Jaccard coefficient over token sets, with a containment
// boost: a mention fully contained in the label (or vice versa) scores at
// least |small| / |large|.
func similarity(a, b []string) float64 {
	as, bs := dedupe(a), dedupe(b)
	inA := make(map[string]bool, len(as))
	for _, t := range as {
		inA[t] = true
	}
	inter := 0
	for _, t := range bs {
		if inA[t] {
			inter++
		}
	}
	if inter == 0 {
		return 0
	}
	union := len(as) + len(bs) - inter
	j := float64(inter) / float64(union)
	small, large := len(as), len(bs)
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
