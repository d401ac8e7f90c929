package dict

import (
	"math"
	"sort"

	"gqa/internal/store"
)

// Maintainer keeps a mined dictionary consistent as the RDF dataset's
// predicate vocabulary evolves, implementing the maintenance strategy of
// §3: "re-mine the mappings for newly introduced predicates, or delete all
// mappings for the predicates when they are removed from the dataset."
//
// It holds Algorithm 1's state — PS(rel_i) as per-phrase term-frequency
// tables, and the corpus document frequencies — and is the one
// implementation of the algorithm: minePhrase is the path search, rebuild
// the tf-idf scoring, and Mine is a Maintainer nobody updates. A vocabulary
// change re-runs path search only for the phrases it can affect and
// rescores everything else from the tables.
type Maintainer struct {
	g    *store.Graph
	sets []SupportSet
	opts MineOptions

	tf    []map[string]int  // per phrase: path key → #pairs whose path set contains it (Definition 4's tf)
	paths []map[string]Path // per phrase: path key → path
	df    map[string]int    // corpus: path key → #phrases whose PS contains it
	dict  *Dictionary
	stats MineStats // path searches run so far, and the corpus size at the last rebuild
}

// NewMaintainer runs Algorithm 1 in full and retains the state needed for
// incremental updates.
func NewMaintainer(g *store.Graph, sets []SupportSet, opts MineOptions) *Maintainer {
	opts.defaults()
	m := &Maintainer{g: g, sets: sets, opts: opts, df: make(map[string]int)}
	m.tf = make([]map[string]int, len(sets))
	m.paths = make([]map[string]Path, len(sets))
	for i := range sets {
		m.minePhrase(i)
	}
	m.rebuild()
	return m
}

// Dictionary returns the current dictionary. The returned value is
// replaced (not mutated) on updates, so callers may keep using a snapshot.
func (m *Maintainer) Dictionary() *Dictionary { return m.dict }

// minePhrase (re)computes phrase i's path statistics, updating df.
func (m *Maintainer) minePhrase(i int) {
	if m.tf[i] != nil {
		for k := range m.tf[i] {
			m.df[k]--
			if m.df[k] == 0 {
				delete(m.df, k)
			}
		}
	}
	tf := make(map[string]int)
	paths := make(map[string]Path)
	for _, pair := range m.sets[i].Pairs {
		m.stats.PairsProbed++
		var found []Path
		if m.opts.Unidirectional {
			found = SimplePathsDFS(m.g, pair[0], pair[1], m.opts.MaxPathLen)
		} else {
			found = SimplePathsBidirectional(m.g, pair[0], pair[1], m.opts.MaxPathLen)
		}
		m.stats.PathsFound += len(found)
		seen := make(map[string]bool, len(found))
		for _, p := range found {
			k := p.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			tf[k]++
			paths[k] = p
		}
	}
	m.tf[i], m.paths[i] = tf, paths
	for k := range tf {
		m.df[k]++
	}
}

// rebuild scores every phrase's paths by tf-idf from the tables (Definition
// 4), keeps each phrase's top k with confidences normalized into (0, 1] as
// the paper's Table 6 does, on the grid a dictionary file holds (onGrid),
// and swaps in a fresh dictionary.
func (m *Maintainer) rebuild() {
	m.stats.Phrases, m.stats.DistinctPath = len(m.sets), len(m.df)
	d := New()
	n := float64(len(m.sets))
	nTriples := float64(m.g.NumTriples() + 1)
	// rarity extends the tf-idf intuition to the predicates inside a path:
	// among paths with (near-)equal tf-idf, the one built from rarer
	// predicates is the better semantic representative — ⟨hasChild⁻¹,
	// hasChild, hasChild⟩ over a detour through the ubiquitous hasGender.
	// The term is scaled so it only breaks ties, never overturns a real
	// tf-idf difference.
	rarity := func(p Path) float64 {
		if len(p) == 0 {
			return 0
		}
		sum := 0.0
		for _, s := range p {
			sum += math.Log(nTriples / float64(m.g.PredCount(s.Pred)+1))
		}
		return sum / float64(len(p))
	}
	for i, set := range m.sets {
		entries := make([]Entry, 0, len(m.tf[i]))
		for k, tf := range m.tf[i] {
			idf := math.Log(n / float64(m.df[k]+1))
			if idf <= 0 {
				// A path occurring in (nearly) every phrase's path sets
				// carries no signal — the hasGender example of §3.
				continue
			}
			p := m.paths[i][k]
			entries = append(entries, Entry{Path: p, Score: float64(tf)*idf + 1e-4*rarity(p)})
		}
		sort.SliceStable(entries, func(a, b int) bool {
			if entries[a].Score != entries[b].Score {
				return entries[a].Score > entries[b].Score
			}
			// Prefer shorter paths on ties, then lexicographic key, for
			// deterministic output.
			if len(entries[a].Path) != len(entries[b].Path) {
				return len(entries[a].Path) < len(entries[b].Path)
			}
			return entries[a].Path.Key() < entries[b].Path.Key()
		})
		if len(entries) > m.opts.TopK {
			entries = entries[:m.opts.TopK]
		}
		if len(entries) > 0 {
			max := entries[0].Score
			for j := range entries {
				entries[j].Score = onGrid(entries[j].Score / max)
			}
			d.Add(set.Phrase, entries)
		}
	}
	m.dict = d
}

// PredicateRemoved reacts to a predicate having been removed from the
// dataset (e.g. via store.Graph.RemovePredicate): every cached path through
// it is dropped, affected phrases lose those entries, and scores are
// refreshed — no path search needed.
func (m *Maintainer) PredicateRemoved(p store.ID) {
	for i := range m.tf {
		for k, path := range m.paths[i] {
			if !pathUses(path, p) {
				continue
			}
			delete(m.paths[i], k)
			delete(m.tf[i], k)
			m.df[k]--
			if m.df[k] == 0 {
				delete(m.df, k)
			}
		}
	}
	m.rebuild()
}

// PredicateAdded reacts to new triples with predicate p, returning how many
// phrases it mined again. A support pair (u, w) gains a path only through a
// p edge, and only one of at most θ steps: some edge of p has one end i hops
// from u and the other j hops from w with i + 1 + j ≤ θ. One breadth-first
// search out of every endpoint of a p edge, to depth θ−1 and blind to edge
// direction like the path search, gives each vertex's distance to the
// nearest such endpoint; a phrase is mined again when a pair of its own
// passes that test on those distances (which can only overestimate what it
// gained), and the corpus is then rescored.
func (m *Maintainer) PredicateAdded(p store.ID) int {
	near := make(map[store.ID]int)
	var frontier []store.ID
	reach := func(v store.ID, d int) {
		if _, ok := near[v]; !ok {
			near[v] = d
			frontier = append(frontier, v)
		}
	}
	m.g.Match(store.Any, p, store.Any, func(t store.Spo) bool {
		reach(t.S, 0)
		reach(t.O, 0)
		return true
	})
	for d := 1; d < m.opts.MaxPathLen; d++ {
		level := frontier
		frontier = nil
		for _, v := range level {
			m.g.UndirectedNeighbors(v, func(n store.Neighbor) bool {
				reach(n.To, d)
				return true
			})
		}
	}
	remined := 0
	for i, set := range m.sets {
		for _, pair := range set.Pairs {
			du, okU := near[pair[0]]
			dw, okW := near[pair[1]]
			if okU && okW && du+1+dw <= m.opts.MaxPathLen {
				m.minePhrase(i)
				remined++
				break
			}
		}
	}
	m.rebuild()
	return remined
}

// AddPhrase introduces a new relation phrase with its support set,
// mining only it and rescoring.
func (m *Maintainer) AddPhrase(set SupportSet) {
	m.sets = append(m.sets, set)
	m.tf = append(m.tf, nil)
	m.paths = append(m.paths, nil)
	m.minePhrase(len(m.sets) - 1)
	m.rebuild()
}

func pathUses(p Path, pred store.ID) bool {
	for _, s := range p {
		if s.Pred == pred {
			return true
		}
	}
	return false
}
