package dict

import "gqa/internal/store"

// SupportSet is the miner's input for one relation phrase: its supporting
// entity pairs as they occur in the RDF graph (Table 2 of the paper). This
// is the contract Patty/ReVerb-style relation extraction provides; the
// benchmark package synthesizes such sets.
type SupportSet struct {
	Phrase string
	Pairs  [][2]store.ID
}

// ThetaMax is θ's default, MineOptions.MaxPathLen when unset, and the
// longest path a dictionary file may hold: Decode refuses a longer one,
// and gqa-mine a larger θ.
const ThetaMax = 4

// MineOptions tunes Algorithm 1.
type MineOptions struct {
	// MaxPathLen is θ, the simple-path length bound. The paper defaults to
	// 4 (§3, footnote 1; Table 7 evaluates θ=2 vs θ=4).
	MaxPathLen int
	// TopK is the number of predicate paths kept per phrase (the paper
	// reports P@3, so 3 is the default).
	TopK int
	// Bidirectional selects the meet-in-the-middle path search (default)
	// versus the reference DFS; exposed for the ablation benchmark.
	Unidirectional bool
}

func (o *MineOptions) defaults() {
	if o.MaxPathLen == 0 {
		o.MaxPathLen = ThetaMax
	}
	if o.TopK == 0 {
		o.TopK = 3
	}
}

// MineStats reports work done by a mining run.
type MineStats struct {
	Phrases      int // |T|
	PairsProbed  int // entity pairs searched
	PathsFound   int // total simple paths found (before dedup per pair)
	DistinctPath int // distinct predicate paths across the corpus
}

// Mine runs Algorithm 1: for every relation phrase, enumerate simple
// predicate paths (length ≤ θ) between its supporting entity pairs, weight
// each path by tf-idf (Definition 4), and keep the top-k as the phrase's
// dictionary entries with normalized confidence probabilities. It is a
// Maintainer that is never updated: mine every phrase, then score.
func Mine(g *store.Graph, sets []SupportSet, opts MineOptions) (*Dictionary, MineStats) {
	m := NewMaintainer(g, sets, opts)
	return m.dict, m.stats
}
