package core

import (
	"gqa/internal/dict"
	"gqa/internal/store"
)

// The parent's path walk, kept verbatim (renamed ref*) as the reference
// dict.Walker and matcher.reachable are compared with: dict.FollowPath's
// closure DFS, which allocated its route, closures and output per walk
// (less its gqa_dict_followpath_total increment, a counter of package
// dict), dict.PathConnects over it, and the matcher's reachable, which
// reversed the path per call and deduped the two orientations' targets in
// a pass of its own.

// refFollowPathDedupeScan is the result-set size up to which FollowPath
// dedupes targets by linear scan before switching to a map; most paths
// reach a handful of vertices and never pay a map allocation.
const refFollowPathDedupeScan = 32

// refFollowPath returns every vertex reachable from v by walking the path
// (respecting step directions), visiting only simple routes. It is used at
// query time to evaluate predicate-path edges of the semantic query graph.
//
// The walk is a DFS over one shared route buffer (the earlier BFS copied
// the route per frontier state, which dominated matcher allocations).
// Every step reads one per-predicate span of the view — never the mutable
// graph — so a caller holding a captured View (the matcher, the
// concurrent-mutation tests) walks a consistent frozen surface while the
// graph mutates underneath. Target order follows the traversal and is not
// significant; results are a set (first-reached order).
//
// A multi-step path over a view that fetches over the wire is first walked
// hop by hop (PrefetchPaths), so each hop costs a frame per shard, not one
// per vertex. A one-step path, and any view over local parts, builds no
// hint.
func refFollowPath(view store.View, v store.ID, p dict.Path) []store.ID {
	if len(p) == 0 {
		return []store.ID{v}
	}
	if len(p) > 1 {
		if sn, ok := view.(*store.Snapshot); ok && sn.Prefetches() {
			dict.PrefetchPaths(sn, []store.ID{v}, []dict.Path{p})
		}
	}
	route := make([]store.ID, 1, len(p)+1)
	route[0] = v
	var out []store.ID
	var seen map[store.ID]struct{}
	add := func(u store.ID) {
		if seen == nil {
			if len(out) < refFollowPathDedupeScan {
				for _, x := range out {
					if x == u {
						return
					}
				}
				out = append(out, u)
				return
			}
			seen = make(map[store.ID]struct{}, 2*len(out))
			for _, x := range out {
				seen[x] = struct{}{}
			}
		}
		if _, dup := seen[u]; dup {
			return
		}
		seen[u] = struct{}{}
		out = append(out, u)
	}
	var walk func(u store.ID, depth int)
	visit := func(w store.ID, depth int) {
		for _, r := range route {
			if r == w {
				return // not simple
			}
		}
		if depth == len(p)-1 {
			add(w)
			return
		}
		route = append(route, w)
		walk(w, depth+1)
		route = route[:len(route)-1]
	}
	walk = func(u store.ID, depth int) {
		st := p[depth]
		var span []store.Edge
		if st.Forward {
			span = view.OutPred(u, st.Pred)
		} else {
			span = view.InPred(u, st.Pred)
		}
		for i := range span {
			visit(span[i].To, depth)
		}
	}
	walk(v, 0)
	return out
}

// refPathConnects reports whether the path connects u and w via a simple
// route — the either-orientation edge test Definition 3 needs — and, when
// it does, whether it leads from u to w (forward: the recorded direction)
// or only from w to u.
func refPathConnects(view store.View, u, w store.ID, p dict.Path) (forward, ok bool) {
	for _, dst := range refFollowPath(view, u, p) {
		if dst == w {
			return true, true
		}
	}
	for _, dst := range refFollowPath(view, w, p) {
		if dst == u {
			return false, true
		}
	}
	return false, false
}

// refReachable returns the vertices connected to u by path p in either
// orientation (Definition 3 condition 3). reversed means u sits at the
// edge's To side, so the recorded path is read backwards first. The first
// nFwd targets are those p reaches running From → To; the rest it reaches
// only running To → From.
func (m *matcher) refReachable(u store.ID, p dict.Path, reversed bool) (targets []store.ID, nFwd int) {
	if !m.opts.Budget.Step() {
		return nil, 0
	}
	a := p
	b := p.Reverse()
	if reversed {
		a, b = b, a
	}
	out := refFollowPath(m.view, u, a)
	nFwd = len(out)
	more := refFollowPath(m.view, u, b)
	// Each FollowPath result is already distinct; only the cross-direction
	// overlap needs deduping. Typical frontiers are small, so a nested scan
	// beats allocating a map; large ones fall back to one.
	if len(out)+len(more) <= 64 {
	cross:
		for _, w := range more {
			for _, x := range out {
				if x == w {
					continue cross
				}
			}
			out = append(out, w)
		}
		return out, nFwd
	}
	seen := make(map[store.ID]struct{}, len(out))
	for _, w := range out {
		seen[w] = struct{}{}
	}
	for _, w := range more {
		if _, dup := seen[w]; !dup {
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out, nFwd
}
