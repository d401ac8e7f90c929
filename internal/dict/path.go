// Package dict implements the paraphrase dictionary D of §3: the offline
// mapping from relation phrases ("be married to", "uncle of") to RDF
// predicates or predicate paths, mined from supporting entity pairs with
// the tf-idf weighting of Definition 4 (Algorithm 1).
//
// It also provides the word-level inverted index over relation phrases that
// Algorithm 2 (relation-phrase embedding search) consumes at question time.
package dict

import (
	"fmt"
	"slices"
	"strings"

	"gqa/internal/obs"
	"gqa/internal/store"
)

// followPathCalls counts predicate-path walks (Walker.Follow calls) — the
// matcher's per-edge traversal unit and the dominant cost of query
// evaluation. Each walker counts its own walks and Flush adds them here,
// one atomic add per search rather than one per walk, so concurrent
// searches do not meet on the counter's cache line.
var followPathCalls = obs.DefaultCounter("gqa_dict_followpath_total",
	"Predicate-path traversals (Walker.Follow calls) during matching.")

// Step is one edge of a predicate path: the predicate and whether the edge
// is traversed along its direction (Forward) or against it.
type Step struct {
	Pred    store.ID
	Forward bool
}

// Path is a sequence of predicate steps read from arg1 to arg2. A single
// predicate is the length-1 special case (§3). "uncle of" is the motivating
// multi-step example: ⟨hasChild⁻¹, hasChild, …⟩.
type Path []Step

// Key returns a canonical map key for the path.
func (p Path) Key() string {
	var b strings.Builder
	for _, s := range p {
		if s.Forward {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d.", s.Pred)
	}
	return b.String()
}

// Reverse returns the path read from arg2 to arg1.
func (p Path) Reverse() Path {
	out := make(Path, len(p))
	for i, s := range p {
		out[len(p)-1-i] = Step{Pred: s.Pred, Forward: !s.Forward}
	}
	return out
}

// Render renders the path with predicate local names, marking inverse steps
// with ⁻¹, e.g. "<hasChild>⁻¹·<hasChild>".
func (p Path) Render(g *store.Graph) string {
	parts := make([]string, len(p))
	for i, s := range p {
		name := "<" + g.Term(s.Pred).LocalName() + ">"
		if !s.Forward {
			name += "⁻¹"
		}
		parts[i] = name
	}
	return strings.Join(parts, "·")
}

// SimplePathsDFS enumerates every simple path (no repeated vertex) between
// from and to of length ≤ maxLen, ignoring edge direction but recording it
// per step. It is the straightforward reference algorithm; the miner uses
// SimplePathsBidirectional, which must agree with it (property-tested).
//
// Paths are returned as predicate-direction sequences; distinct vertex
// routes yielding the same sequence are deduplicated, matching the paper's
// treatment of PS(rel) as a set of predicate path patterns per pair.
func SimplePathsDFS(g *store.Graph, from, to store.ID, maxLen int) []Path {
	if maxLen <= 0 || from == to {
		return nil
	}
	seen := make(map[string]struct{})
	var out []Path
	onPath := map[store.ID]bool{from: true}
	var cur Path
	var dfs func(v store.ID)
	dfs = func(v store.ID) {
		if len(cur) >= maxLen {
			return
		}
		g.UndirectedNeighbors(v, func(n store.Neighbor) bool {
			if g.IsSchemaPred(n.Pred) {
				return true
			}
			if n.To == to {
				p := append(append(Path{}, cur...), Step{Pred: n.Pred, Forward: n.Forward})
				k := p.Key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, p)
				}
				return true
			}
			if onPath[n.To] {
				return true
			}
			onPath[n.To] = true
			cur = append(cur, Step{Pred: n.Pred, Forward: n.Forward})
			dfs(n.To)
			cur = cur[:len(cur)-1]
			delete(onPath, n.To)
			return true
		})
	}
	dfs(from)
	return out
}

// halfPath is a partial route from one endpoint: the vertex sequence and
// step sequence walked so far.
type halfPath struct {
	verts []store.ID
	steps Path
}

// SimplePathsBidirectional enumerates the same simple paths as
// SimplePathsDFS using a meet-in-the-middle search (§3: "we adopt a
// bi-directional BFS search from vertices v and v′"): routes of length up
// to ⌈maxLen/2⌉ are expanded from both endpoints and joined at meeting
// vertices, discarding joins that repeat a vertex.
func SimplePathsBidirectional(g *store.Graph, from, to store.ID, maxLen int) []Path {
	if maxLen <= 0 || from == to {
		return nil
	}
	fwdDepth := (maxLen + 1) / 2
	bwdDepth := maxLen / 2
	fwd := expandRoutes(g, from, fwdDepth)
	bwd := expandRoutes(g, to, bwdDepth)

	seen := make(map[string]struct{})
	var out []Path
	emit := func(p Path) {
		k := p.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, p)
		}
	}
	for meet, fRoutes := range fwd {
		bRoutes, ok := bwd[meet]
		if !ok {
			continue
		}
		for _, f := range fRoutes {
			for _, b := range bRoutes {
				if len(f.steps)+len(b.steps) == 0 || len(f.steps)+len(b.steps) > maxLen {
					continue
				}
				if routesIntersect(f, b, meet, from, to) {
					continue
				}
				// b runs to→…→meet; reverse it to meet→…→to.
				p := make(Path, 0, len(f.steps)+len(b.steps))
				p = append(p, f.steps...)
				p = append(p, b.steps.Reverse()...)
				emit(p)
			}
		}
	}
	return out
}

// expandRoutes returns, for every vertex reachable within depth steps, all
// simple routes from start to it (including the empty route to start).
func expandRoutes(g *store.Graph, start store.ID, depth int) map[store.ID][]halfPath {
	out := map[store.ID][]halfPath{
		start: {{verts: []store.ID{start}}},
	}
	frontier := []halfPath{{verts: []store.ID{start}}}
	for d := 0; d < depth; d++ {
		var next []halfPath
		for _, hp := range frontier {
			v := hp.verts[len(hp.verts)-1]
			g.UndirectedNeighbors(v, func(n store.Neighbor) bool {
				if g.IsSchemaPred(n.Pred) {
					return true
				}
				for _, u := range hp.verts {
					if u == n.To {
						return true // not simple
					}
				}
				nhp := halfPath{
					verts: append(append([]store.ID{}, hp.verts...), n.To),
					steps: append(append(Path{}, hp.steps...), Step{Pred: n.Pred, Forward: n.Forward}),
				}
				out[n.To] = append(out[n.To], nhp)
				next = append(next, nhp)
				return true
			})
		}
		frontier = next
	}
	return out
}

// routesIntersect reports whether the two half routes share an internal
// vertex other than the meeting point (which would make the joined path
// non-simple). It also rejects joins where one side passes through the
// other side's endpoint.
func routesIntersect(f, b halfPath, meet, from, to store.ID) bool {
	inF := make(map[store.ID]bool, len(f.verts))
	for _, v := range f.verts {
		inF[v] = true
	}
	for _, v := range b.verts {
		if v == meet {
			continue
		}
		if inF[v] {
			return true
		}
	}
	return false
}

// walkDedupeScan is the number of targets up to which a walk dedupes by
// linear scan before switching to its set; most walks reach a handful of
// vertices and never touch the set.
const walkDedupeScan = 32

// Walker evaluates predicate paths over one view at query time (the
// predicate-path edges of the semantic query graph), reusing its route and
// dedupe set from walk to walk: a walk allocates nothing but the growth of
// the buffer its caller hands it. A Walker is for one goroutine at a time;
// the zero value is ready once Reset gives it a view.
type Walker struct {
	view store.View
	sn   *store.Snapshot // view, when it fetches over the wire; else nil
	// walks counts Follow calls since the last Flush.
	walks int64
	// largest is the longest output a walk returned since Reset. The
	// dedupe set and the scratch buffer never held more targets than that.
	largest int

	// The walk in progress: its path, the caller's buffer it appends to,
	// the vertices of the current route, and whether seen holds out.
	p     Path
	out   []store.ID
	route []store.ID
	seen  map[store.ID]struct{}
	inSet bool
	// scratch is Connects' target buffer.
	scratch []store.ID
}

// Reset points the walker at view, keeping its buffers.
func (w *Walker) Reset(view store.View) {
	w.view, w.sn, w.largest = view, nil, 0
	if sn, ok := view.(*store.Snapshot); ok && sn.Prefetches() {
		w.sn = sn
	}
}

// Release drops the walker's view, so a walker kept for reuse holds no
// graph alive.
func (w *Walker) Release() {
	w.view, w.sn = nil, nil
}

// Largest is the most targets one walk returned since Reset: a bound on
// what the walker's dedupe set and scratch buffer have grown to hold.
func (w *Walker) Largest() int { return w.largest }

// Flush adds the walks made since the last Flush to
// gqa_dict_followpath_total.
func (w *Walker) Flush() {
	followPathCalls.Add(w.walks)
	w.walks = 0
}

// Follow appends to dst every vertex reachable from v by walking the path
// (respecting step directions) over a simple route, unless dst holds it
// already, and returns the extended buffer. An empty path reaches v itself.
//
// The walk is a DFS over the walker's one route buffer. Every step reads
// one per-predicate span of the view — never the mutable graph — so a
// caller holding a captured View (the matcher, the concurrent-mutation
// tests) walks a consistent frozen surface while the graph mutates
// underneath. Targets are appended in first-reached order.
//
// A multi-step path over a view that fetches over the wire is first walked
// hop by hop (PrefetchPaths), so each hop costs a frame per shard, not one
// per vertex. A one-step path, and any view over local parts, builds no
// hint.
func (w *Walker) Follow(dst []store.ID, v store.ID, p Path) []store.ID {
	w.walks++
	w.out, w.inSet = dst, false
	if len(p) == 0 {
		w.add(v)
	} else {
		if len(p) > 1 && w.sn != nil {
			PrefetchPaths(w.sn, []store.ID{v}, []Path{p})
		}
		w.p, w.route = p, append(w.route[:0], v)
		w.walk(v, 0)
		w.p = nil
	}
	out := w.out
	w.out, w.largest = nil, max(w.largest, len(out))
	return out
}

// walk follows step depth of the walk's path out of u.
func (w *Walker) walk(u store.ID, depth int) {
	st := w.p[depth]
	var span []store.Edge
	if st.Forward {
		span = w.view.OutPred(u, st.Pred)
	} else {
		span = w.view.InPred(u, st.Pred)
	}
	last := depth == len(w.p)-1
	for i := range span {
		x := span[i].To
		if slices.Contains(w.route, x) {
			continue // not simple
		}
		if last {
			w.add(x)
			continue
		}
		w.route = append(w.route, x)
		w.walk(x, depth+1)
		w.route = w.route[:len(w.route)-1]
	}
}

// add appends x to the walk's output unless it is there already: by scan
// while the output is short, and past walkDedupeScan by the walker's set,
// filled once per walk from what the output holds.
func (w *Walker) add(x store.ID) {
	if !w.inSet {
		if len(w.out) < walkDedupeScan {
			if !slices.Contains(w.out, x) {
				w.out = append(w.out, x)
			}
			return
		}
		if w.seen == nil {
			w.seen = make(map[store.ID]struct{}, 2*len(w.out))
		} else {
			clear(w.seen)
		}
		for _, y := range w.out {
			w.seen[y] = struct{}{}
		}
		w.inSet = true
	}
	if _, dup := w.seen[x]; !dup {
		w.seen[x] = struct{}{}
		w.out = append(w.out, x)
	}
}

// PrefetchPaths tells a snapshot that fetches over the wire (one for which
// sn.Prefetches() holds) the reads Walker.Follow makes walking every one of
// paths from every one of starts. It walks them breadth-first and in step:
// hop d of all the walks is hinted as one store.Prefetch — a frame per
// owning shard — and what arrived is then followed to the level hop d+1
// leaves from. It follows only what the snapshot holds (Prefetched), so it
// makes no read of its own: whatever did not arrive is left to the walk,
// and to fail there if it must. The levels ignore route simplicity, so
// they cover every span a walk reads and at most a few it prunes.
func PrefetchPaths(sn *store.Snapshot, starts []store.ID, paths []Path) {
	levels := make([][]store.ID, len(paths))
	for i := range levels {
		levels[i] = starts
	}
	for d := 0; ; d++ {
		var reads []store.Read
		for i, p := range paths {
			if d < len(p) {
				for _, u := range levels[i] {
					reads = append(reads, store.ReadPred(u, p[d].Pred, p[d].Forward))
				}
			}
		}
		if len(reads) == 0 {
			return
		}
		sn.Prefetch(reads)
		for i, p := range paths {
			level := levels[i]
			levels[i] = nil
			if d+1 >= len(p) {
				continue // the last hop's spans are the walk's result, not a level
			}
			seen := make(map[store.ID]struct{})
			for _, u := range level {
				span, _ := sn.Prefetched(store.ReadPred(u, p[d].Pred, p[d].Forward))
				for j := range span {
					if _, dup := seen[span[j].To]; !dup {
						seen[span[j].To] = struct{}{}
						levels[i] = append(levels[i], span[j].To)
					}
				}
			}
		}
	}
}

// Connects reports whether the path connects u and x via a simple route —
// the either-orientation edge test Definition 3 needs — and, when it does,
// whether it leads from u to x (forward: the recorded direction) or only
// from x to u. It walks once or twice, as Follow.
func (w *Walker) Connects(u, x store.ID, p Path) (forward, ok bool) {
	w.scratch = w.Follow(w.scratch[:0], u, p)
	if slices.Contains(w.scratch, x) {
		return true, true
	}
	w.scratch = w.Follow(w.scratch[:0], x, p)
	return false, slices.Contains(w.scratch, u)
}
