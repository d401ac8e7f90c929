package store

// Graph enumeration: the offline side of the pipeline — support-set
// sampling, path mining, dictionary maintenance — walks the graph through
// Match and the neighbor walks below: in insertion order before the first
// freeze, in the snapshot's sorted order after (graph.go). Online reads
// take the frozen View (frozen.go) directly.

import "gqa/internal/faultpoint"

// Any is the wildcard for Match.
const Any ID = None

// Match calls fn for every triple matching the (s, p, o) pattern, where any
// position may be Any. Iteration stops early if fn returns false.
//
// Once the graph has been frozen it is the snapshot's Match. Before, a
// bound s scans out[s], a bound o scans in[o], a bound p alone scans the
// predicate-major index — each in insertion order, which the miners'
// first-N sampling depends on — and the unbound pattern ranges over the
// predicate groups in no particular order.
func (g *Graph) Match(s, p, o ID, fn func(Spo) bool) {
	if sn := g.current(); sn != nil {
		sn.Match(s, p, o, fn)
		return
	}
	faultpoint.Hit(faultpoint.StoreMatch)
	switch {
	case s != Any && p != Any && o != Any:
		if g.Has(s, p, o) {
			fn(Spo{s, p, o})
		}
	case s != Any:
		if int(s) >= len(g.out) {
			return
		}
		for _, e := range g.out[s] {
			if p != Any && e.Pred != p {
				continue
			}
			if o != Any && e.To != o {
				continue
			}
			if !fn(Spo{s, e.Pred, e.To}) {
				return
			}
		}
	case o != Any:
		if int(o) >= len(g.in) {
			return
		}
		for _, e := range g.in[o] {
			if p != Any && e.Pred != p {
				continue
			}
			if !fn(Spo{e.To, e.Pred, o}) {
				return
			}
		}
	case p != Any:
		for _, spo := range g.byPred[p] {
			if !fn(spo) {
				return
			}
		}
	default:
		for _, spos := range g.byPred {
			for _, spo := range spos {
				if !fn(spo) {
					return
				}
			}
		}
	}
}

// Neighbor describes one undirected step from a vertex: the predicate, the
// vertex reached, and whether the underlying edge points away from the
// start (Forward) or toward it. The offline miner walks these (§3: "we
// ignore edge directions in a BFS process") and predicate paths record the
// direction so that, e.g., "uncle of" can be ⟨hasChild⁻, hasChild⟩.
type Neighbor struct {
	Pred    ID
	To      ID
	Forward bool
}

// UndirectedNeighbors calls fn for every edge incident to v, in both
// directions, out edges first, each side in Out's order. Iteration stops
// early if fn returns false.
func (g *Graph) UndirectedNeighbors(v ID, fn func(Neighbor) bool) {
	for _, e := range g.Out(v) {
		if !fn(Neighbor{Pred: e.Pred, To: e.To, Forward: true}) {
			return
		}
	}
	for _, e := range g.In(v) {
		if !fn(Neighbor{Pred: e.Pred, To: e.To, Forward: false}) {
			return
		}
	}
}
