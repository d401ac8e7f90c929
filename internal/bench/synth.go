package bench

import (
	"fmt"
	"math/rand"
	"slices"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// SynthOptions parameterizes the synthetic RDF graph generator used by the
// offline-mining experiments (Tables 5 and 7) and the scaling benchmarks.
// It produces a DBpedia-shaped graph: a power-law-ish degree distribution,
// a predicate vocabulary with a few very frequent predicates (the
// hasGender-style noise sources) and many rarer ones, and rdf:type edges.
type SynthOptions struct {
	Seed       int64
	Entities   int
	Predicates int
	AvgDegree  int // average out-degree per entity
	Classes    int
}

func (o *SynthOptions) defaults() {
	if o.Entities == 0 {
		o.Entities = 1000
	}
	if o.Predicates == 0 {
		o.Predicates = 20
	}
	if o.AvgDegree == 0 {
		o.AvgDegree = 4
	}
	if o.Classes == 0 {
		o.Classes = 5
	}
}

// SynthGraph holds a generated graph plus the vocabulary handles the
// phrase-dataset generator needs.
type SynthGraph struct {
	Graph    *store.Graph
	Entities []store.ID
	Preds    []store.ID
}

// NewSynthGraph generates a synthetic graph. Predicate p_i is chosen with
// probability ∝ 1/(i+1), so low-index predicates are ubiquitous noise and
// high-index ones are informative.
func NewSynthGraph(opts SynthOptions) *SynthGraph {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	g := store.New()
	sg := &SynthGraph{Graph: g}

	for i := 0; i < opts.Predicates; i++ {
		sg.Preds = append(sg.Preds, g.Intern(rdf.Ontology(fmt.Sprintf("p%03d", i))))
	}
	classes := make([]store.ID, opts.Classes)
	for i := range classes {
		classes[i] = g.Intern(rdf.Ontology(fmt.Sprintf("C%02d", i)))
	}
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	_ = typ
	for i := 0; i < opts.Entities; i++ {
		e := g.Intern(rdf.Resource(fmt.Sprintf("e%06d", i)))
		sg.Entities = append(sg.Entities, e)
		g.AddSPO(e, typ, classes[rng.Intn(len(classes))])
	}

	// Harmonic weights for predicate choice.
	weights := make([]float64, opts.Predicates)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	pick := func() store.ID {
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return sg.Preds[i]
			}
		}
		return sg.Preds[len(sg.Preds)-1]
	}

	nEdges := opts.Entities * opts.AvgDegree
	for i := 0; i < nEdges; i++ {
		s := sg.Entities[rng.Intn(len(sg.Entities))]
		o := sg.Entities[rng.Intn(len(sg.Entities))]
		if s == o {
			continue
		}
		g.AddSPO(s, pick(), o)
	}
	return sg
}

// SynthPhraseSet is a generated Patty-style relation-phrase dataset with
// its gold mapping, enabling the P@k evaluation of Exp 1 without human
// judges: a mined entry is "correct" iff it equals the gold path used to
// plant the support pairs.
type SynthPhraseSet struct {
	Sets []dict.SupportSet
	// Gold maps phrase → the planted predicate path.
	Gold map[string]dict.Path
	// GoldLen maps phrase → planted path length (1..θ).
	GoldLen map[string]int
}

// SynthPhraseOptions parameterizes the phrase-dataset generator.
type SynthPhraseOptions struct {
	Seed    int64
	Phrases int // number of relation phrases
	Support int // supporting pairs per phrase
	// MaxGoldLen plants phrases whose gold mapping is a path of length
	// 1..MaxGoldLen (default 3), reproducing Exp 1's length axis.
	MaxGoldLen int
	// NoisePairs per phrase that support nothing (Patty's ~33% miss rate).
	NoisePairs int
	// GoldFraction is the per-hop probability that a supporting pair's
	// canonical KB path is intact (default 1.0). Patty-style extraction
	// is imperfect, and a length-l canonical path aggregates l facts each
	// of which may be missing or misextracted, so the effective share of
	// gold-realizing pairs is GoldFraction^l; the remaining pairs are
	// sampled as endpoints of a random walk — confounding co-occurrence.
	// This compounding is what degrades P@k as gold length grows (Exp 1).
	GoldFraction float64
}

func (o *SynthPhraseOptions) defaults() {
	if o.Phrases == 0 {
		o.Phrases = 50
	}
	if o.Support == 0 {
		o.Support = 10
	}
	if o.MaxGoldLen == 0 {
		o.MaxGoldLen = 3
	}
	if o.GoldFraction == 0 {
		o.GoldFraction = 1.0
	}
}

// NewSynthPhrases generates a phrase dataset over sg. For each phrase a
// gold path is drawn (length cycling 1..MaxGoldLen over random predicates
// and directions); support pairs are found by walking the gold path from
// random start entities. Phrases whose gold path has no realization in the
// graph get fresh planted edges so every phrase is supported.
func NewSynthPhrases(sg *SynthGraph, opts SynthPhraseOptions) *SynthPhraseSet {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	out := &SynthPhraseSet{
		Gold:    make(map[string]dict.Path),
		GoldLen: make(map[string]int),
	}
	for i := 0; i < opts.Phrases; i++ {
		phrase := fmt.Sprintf("synthetic relation %03d", i)
		length := 1 + i%opts.MaxGoldLen
		path := make(dict.Path, length)
		for j := range path {
			path[j] = dict.Step{
				Pred:    sg.Preds[len(sg.Preds)/2+rng.Intn(len(sg.Preds)-len(sg.Preds)/2)],
				Forward: rng.Intn(2) == 0,
			}
		}
		set := dict.SupportSet{Phrase: phrase}
		eff := 1.0
		for h := 0; h < length; h++ {
			eff *= opts.GoldFraction
		}
		goldPairs := int(float64(opts.Support)*eff + 0.5)
		if goldPairs < 1 {
			goldPairs = 1
		}
		// Imperfectly-extracted pairs: endpoints of a random undirected
		// walk of the same length, not the gold path.
		for len(set.Pairs) < opts.Support-goldPairs {
			start := sg.Entities[rng.Intn(len(sg.Entities))]
			if end, ok := randomWalkEnd(sg.Graph, rng, start, length); ok && end != start {
				set.Pairs = append(set.Pairs, [2]store.ID{start, end})
			}
		}
		for len(set.Pairs) < opts.Support {
			start := sg.Entities[rng.Intn(len(sg.Entities))]
			ends := walkPath(sg.Graph, start, path)
			if len(ends) == 0 {
				// Plant the path so support exists.
				cur := start
				ok := true
				for _, st := range path {
					next := sg.Entities[rng.Intn(len(sg.Entities))]
					if next == cur {
						ok = false
						break
					}
					if st.Forward {
						sg.Graph.AddSPO(cur, st.Pred, next)
					} else {
						sg.Graph.AddSPO(next, st.Pred, cur)
					}
					cur = next
				}
				if !ok {
					continue
				}
				set.Pairs = append(set.Pairs, [2]store.ID{start, cur})
				continue
			}
			set.Pairs = append(set.Pairs, [2]store.ID{start, ends[rng.Intn(len(ends))]})
		}
		for j := 0; j < opts.NoisePairs; j++ {
			set.Pairs = append(set.Pairs, [2]store.ID{
				sg.Entities[rng.Intn(len(sg.Entities))],
				sg.Entities[rng.Intn(len(sg.Entities))],
			})
		}
		out.Sets = append(out.Sets, set)
		out.Gold[phrase] = path
		out.GoldLen[phrase] = length
	}
	return out
}

// walkPath returns the distinct vertices reachable from v along path by
// simple routes, walking the builder's adjacency in insertion order. The
// generator interleaves these walks with planting edges, so it reads the
// mutable graph directly rather than freezing after every plant (the
// query-time walk over a frozen view is dict.FollowPath).
func walkPath(g *store.Graph, v store.ID, path dict.Path) []store.ID {
	var ends []store.ID
	route := []store.ID{v}
	var walk func(depth int)
	walk = func(depth int) {
		st := path[depth]
		adj := g.Out(route[depth])
		if !st.Forward {
			adj = g.In(route[depth])
		}
		for _, e := range adj {
			if e.Pred != st.Pred || slices.Contains(route, e.To) {
				continue
			}
			if depth < len(path)-1 {
				route = append(route, e.To)
				walk(depth + 1)
				route = route[:depth+1]
			} else if !slices.Contains(ends, e.To) {
				ends = append(ends, e.To)
			}
		}
	}
	walk(0)
	return ends
}

// randomWalkEnd walks `steps` undirected non-schema edges from start,
// choosing uniformly at each hop.
func randomWalkEnd(g *store.Graph, rng *rand.Rand, start store.ID, steps int) (store.ID, bool) {
	cur := start
	for i := 0; i < steps; i++ {
		var options []store.Neighbor
		g.UndirectedNeighbors(cur, func(n store.Neighbor) bool {
			if !g.IsSchemaPred(n.Pred) {
				options = append(options, n)
			}
			return true
		})
		if len(options) == 0 {
			return 0, false
		}
		cur = options[rng.Intn(len(options))].To
	}
	return cur, true
}

// PrecisionAtK computes Exp 1's P@k per gold path length: for each phrase
// with gold length L, a hit is scored if the gold path appears among the
// mined top-k entries (or its reverse — both orientations denote the same
// relation read from the other argument).
func PrecisionAtK(d *dict.Dictionary, ps *SynthPhraseSet, k int) map[int]float64 {
	hits := make(map[int]int)
	totals := make(map[int]int)
	for phrase, gold := range ps.Gold {
		l := ps.GoldLen[phrase]
		totals[l]++
		p, ok := d.Lookup(phrase)
		if !ok {
			continue
		}
		goldKey, goldRev := gold.Key(), gold.Reverse().Key()
		n := len(p.Entries)
		if n > k {
			n = k
		}
		for _, e := range p.Entries[:n] {
			if e.Path.Key() == goldKey || e.Path.Key() == goldRev {
				hits[l]++
				break
			}
		}
	}
	out := make(map[int]float64)
	for l, t := range totals {
		out[l] = float64(hits[l]) / float64(t)
	}
	return out
}
