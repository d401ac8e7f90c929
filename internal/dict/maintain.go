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
// It caches the per-phrase term-frequency tables and the corpus document
// frequencies of Algorithm 1, so a vocabulary change re-runs path search
// only for the phrases it can affect and rescores everything else from the
// cache.
type Maintainer struct {
	g    *store.Graph
	sets []SupportSet
	opts MineOptions

	tf    []map[string]int  // per phrase: path key → #pairs containing it
	paths []map[string]Path // per phrase: path key → path
	df    map[string]int    // corpus: path key → #phrases containing it
	dict  *Dictionary
}

// NewMaintainer runs a full mine and retains the state needed for
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
		var found []Path
		if m.opts.Unidirectional {
			found = SimplePathsDFS(m.g, pair[0], pair[1], m.opts.MaxPathLen)
		} else {
			found = SimplePathsBidirectional(m.g, pair[0], pair[1], m.opts.MaxPathLen)
		}
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

// rebuild rescoreds every phrase from the cached statistics (Definition 4)
// and swaps in a fresh dictionary.
func (m *Maintainer) rebuild() {
	d := New()
	n := float64(len(m.sets))
	nTriples := float64(m.g.NumTriples() + 1)
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
				continue
			}
			p := m.paths[i][k]
			entries = append(entries, Entry{Path: p, Score: float64(tf)*idf + 1e-4*rarity(p)})
		}
		sort.SliceStable(entries, func(a, b int) bool {
			if entries[a].Score != entries[b].Score {
				return entries[a].Score > entries[b].Score
			}
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
				entries[j].Score /= max
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

// PredicateAdded reacts to new triples with predicate p: phrases with a
// support pair adjacent to the new predicate are re-mined (only those can
// gain paths), then the corpus is rescored.
func (m *Maintainer) PredicateAdded(p store.ID) int {
	remined := 0
	view := m.g.FrozenView()
	for i, set := range m.sets {
		affected := false
		for _, pair := range set.Pairs {
			if view.HasAdjacentPred(pair[0], p) || view.HasAdjacentPred(pair[1], p) {
				affected = true
				break
			}
		}
		if affected {
			m.minePhrase(i)
			remined++
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
