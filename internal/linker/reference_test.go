package linker

import (
	"sort"
	"strings"
	"unicode"

	"gqa/internal/nlp"
	"gqa/internal/store"
)

// reference is Link as it was before the flat index (PR 25), kept as it
// was but for its names, its metrics and an inlined stop-word test: maps
// keyed by token and by vertex ID,
// every label re-lemmatised and compared as strings per candidate, the
// degree prior read from the live graph, everything sorted before the
// limit. The differential tests hold the index to it bit for bit.
type reference struct {
	g       *store.Graph
	byToken map[string][]store.ID
	labels  map[store.ID][][]string
	isClass map[store.ID]bool
	maxDeg  float64
}

func newReference(g *store.Graph) *reference {
	l := &reference{
		g:       g,
		byToken: make(map[string][]store.ID),
		labels:  make(map[store.ID][][]string),
		isClass: make(map[store.ID]bool),
	}
	view := g.FrozenView()
	for _, id := range view.Entities() {
		l.index(id, false)
	}
	for _, id := range g.Classes() {
		l.index(id, true)
	}
	for v := 0; v < g.NumTerms(); v++ {
		id := store.ID(v)
		if !g.Term(id).IsLiteral() || g.Degree(id) == 0 {
			continue
		}
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

func (l *reference) index(id store.ID, isClass bool) {
	l.isClass[id] = isClass
	seen := make(map[string]bool)
	addLabel := func(label string) {
		toks := refNormalizeTokens(label)
		if len(toks) == 0 {
			return
		}
		key := strings.Join(toks, " ")
		if seen[key] {
			return
		}
		seen[key] = true
		l.labels[id] = append(l.labels[id], toks)
		for _, tok := range refDedupe(toks) {
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

func refNormalizeTokens(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	var out []string
	for _, f := range fields {
		switch f {
		case "the", "a", "an", "of":
			continue
		}
		out = append(out, f)
	}
	return out
}

func refDedupe(ws []string) []string {
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

// Link is the pre-index Link.
func (l *reference) Link(mention string, limit int) []Candidate {
	mToks := refNormalizeTokens(mention)
	if len(mToks) == 0 {
		return nil
	}
	mLemmas := refLemmaSet(mToks)
	cand := make(map[store.ID]struct{})
	for _, t := range append(refDedupe(mToks), mLemmas...) {
		for _, id := range l.byToken[t] {
			cand[id] = struct{}{}
		}
	}
	var out []Candidate
	for id := range cand {
		best := 0.0
		for _, lToks := range l.labels[id] {
			s := refSimilarity(mToks, lToks)
			if ls := refSimilarity(mLemmas, refLemmaSet(lToks)); ls > s {
				s = ls
			}
			if s > best {
				best = s
			}
		}
		if best < minSimilarity {
			continue
		}
		if l.isClass[id] && !l.mentionContained(mLemmas, id) {
			continue
		}
		out = append(out, Candidate{ID: id, IsClass: l.isClass[id], Score: l.score(best, id)})
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
	return out
}

func (l *reference) score(sim float64, id store.ID) float64 {
	prior := 0.0
	if l.maxDeg > 0 {
		prior = float64(l.g.Degree(id)) / l.maxDeg
	}
	return 0.85*sim + 0.15*prior
}

func (l *reference) mentionContained(mLemmas []string, id store.ID) bool {
	for _, lToks := range l.labels[id] {
		lset := make(map[string]bool)
		for _, t := range refLemmaSet(lToks) {
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

func refLemmaSet(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = nlp.Lemma(t, "NNS")
	}
	return refDedupe(out)
}

func refSimilarity(a, b []string) float64 {
	as, bs := refDedupe(a), refDedupe(b)
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
	if inter == small {
		if c := float64(small) / float64(large); c > j {
			j = c
		}
	}
	return j
}
