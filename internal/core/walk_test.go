package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// walkCase is one graph and one path to walk over it from every vertex.
type walkCase struct {
	g     *store.Graph
	verts []store.ID
	p     dict.Path
	other store.ID // the far end Connects is asked about
}

// decodeWalkCase reads a case from bytes: a vertex count, a hub size (the
// first vertex's out-edges over the first predicate, enough to reach more
// than walkDedupeScan targets), the path's steps over three predicates,
// the far end, then one edge per three bytes.
func decodeWalkCase(data []byte) walkCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := store.New()
	c := walkCase{g: g}
	for i := range 8 + next()%56 {
		c.verts = append(c.verts, g.Intern(rdf.Resource("v"+strconv.Itoa(i))))
	}
	preds := make([]store.ID, 3)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology("p" + strconv.Itoa(i)))
	}
	for i := range min(next()%48, len(c.verts)-1) {
		g.AddSPO(c.verts[0], preds[0], c.verts[1+i])
	}
	for range next() % 4 {
		b := next()
		c.p = append(c.p, dict.Step{Pred: preds[b%3], Forward: b/3%2 == 0})
	}
	c.other = c.verts[next()%len(c.verts)]
	for len(data) > 0 {
		g.AddSPO(c.verts[next()%len(c.verts)], preds[next()%3], c.verts[next()%len(c.verts)])
	}
	return c
}

// randomWalkBytes draws bytes for decodeWalkCase: a hub half the time, and
// as many edges as one to three times the vertices.
func randomWalkBytes(rng *rand.Rand) []byte {
	n := 8 + rng.Intn(56)
	hub := 0
	if rng.Intn(2) == 0 {
		hub = 30 + rng.Intn(18)
	}
	data := []byte{byte(n - 8), byte(hub), byte(rng.Intn(4))}
	for range 3 {
		data = append(data, byte(rng.Intn(256)))
	}
	data = append(data, byte(rng.Intn(n)))
	for range n + rng.Intn(2*n) {
		data = append(data, byte(rng.Intn(n)), byte(rng.Intn(3)), byte(rng.Intn(n)))
	}
	return data
}

// walkShapes counts what the walks met that the comparison is there for.
type walkShapes struct {
	bothOrientations, overScan, nonSimple, repeatedPred, emptyPath int
}

// rejectedRoutes counts the routes a walk of p from v drops for coming back
// to a vertex it passed.
func rejectedRoutes(view store.View, v store.ID, p dict.Path) int {
	n := 0
	var walk func(route []store.ID)
	walk = func(route []store.ID) {
		depth := len(route) - 1
		if depth == len(p) {
			return
		}
		u, st := route[depth], p[depth]
		span := view.InPred(u, st.Pred)
		if st.Forward {
			span = view.OutPred(u, st.Pred)
		}
		for _, e := range span {
			if slices.Contains(route, e.To) {
				n++
				continue
			}
			walk(append(route, e.To))
		}
	}
	walk([]store.ID{v})
	return n
}

func repeatsPred(p dict.Path) bool {
	for i := range p {
		for j := range i {
			if p[i].Pred == p[j].Pred {
				return true
			}
		}
	}
	return false
}

// walkMatcher is a matcher over view for q, set up as far as reachable
// needs: the reversed paths, a walker and one frontier buffer.
func walkMatcher(view store.View, q *QueryGraph) *matcher {
	m := &matcher{view: view, q: q, frontier: make([][]store.ID, 1)}
	m.walker.Reset(view)
	m.reversePaths()
	return m
}

// compareWalks walks c's path from every vertex with the walker, the
// matcher's reachable and Connects, and with the parent's FollowPath,
// reachable and PathConnects, and says how they first differ ("" when they
// never do): targets in order, nFwd, the connection and its orientation,
// and the walks the walker counted.
func compareWalks(c walkCase, shapes *walkShapes) string {
	view := c.g.FrozenView()
	// One edge between two wh-vertices, with the one candidate path.
	m := walkMatcher(view, &QueryGraph{
		Vertices: []Vertex{{Unconstrained: true}, {Unconstrained: true}},
		Edges:    []Edge{{From: 0, To: 1, Candidates: []EdgeCandidate{{Path: c.p, Score: 1}}}},
	})
	counter := obs.DefaultCounter("gqa_dict_followpath_total", "")
	m.walker.Flush()
	before, walks := counter.Value(), int64(0)
	for _, u := range c.verts {
		got, want := m.walker.Follow(nil, u, c.p), refFollowPath(view, u, c.p)
		walks++
		if !slices.Equal(got, want) {
			return fmt.Sprintf("Follow(%d, %v) = %v, the reference's %v", u, c.p, got, want)
		}
		for _, rev := range []bool{false, true} {
			got, gotN := m.reachable(0, u, 0, 0, rev)
			want, wantN := m.refReachable(u, c.p, rev)
			walks += 2
			if !slices.Equal(got, want) || gotN != wantN {
				return fmt.Sprintf("reachable(%d, %v, reversed %t) = %v, %d, the reference's %v, %d", u, c.p, rev, got, gotN, want, wantN)
			}
		}
		fwd, ok := m.walker.Connects(u, c.other, c.p)
		wantFwd, wantOK := refPathConnects(view, u, c.other, c.p)
		walks += 2
		if wantFwd {
			walks--
		}
		if fwd != wantFwd || ok != wantOK {
			return fmt.Sprintf("Connects(%d, %d, %v) = %t, %t, the reference's %t, %t", u, c.other, c.p, fwd, ok, wantFwd, wantOK)
		}

		fw, bw := refFollowPath(view, u, c.p), refFollowPath(view, u, c.p.Reverse())
		if slices.ContainsFunc(fw, func(x store.ID) bool { return slices.Contains(bw, x) }) {
			shapes.bothOrientations++
		}
		if len(fw) > 32 { // dict's walkDedupeScan
			shapes.overScan++
		}
		if rejectedRoutes(view, u, c.p) > 0 {
			shapes.nonSimple++
		}
		if len(fw) > 0 && repeatsPred(c.p) {
			shapes.repeatedPred++
		}
		if len(c.p) == 0 {
			shapes.emptyPath++
		}
	}
	m.walker.Flush()
	if got := counter.Value() - before; got != walks {
		return fmt.Sprintf("the walker counted %d walks, the reference made %d", got, walks)
	}
	return ""
}

// TestQuickWalkMatchesReference walks random paths over random graphs with
// the walker and the matcher and with the parent's code, and requires the
// same targets in the same order, the same nFwd and the same connections.
// It fails unless the walks met a target both orientations reach, a walk
// past the scan dedupe, a route rejected as not simple, a predicate
// repeated within a path, and the empty path.
func TestQuickWalkMatchesReference(t *testing.T) {
	var shapes walkShapes
	prop := func(seed int64) bool {
		if diff := compareWalks(decodeWalkCase(randomWalkBytes(rand.New(rand.NewSource(seed)))), &shapes); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if shapes.bothOrientations == 0 || shapes.overScan == 0 || shapes.nonSimple == 0 || shapes.repeatedPred == 0 || shapes.emptyPath == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", shapes)
	}
	t.Logf("%+v", shapes)
}

// FuzzFollowPath is the same comparison over fuzzed graphs and paths.
func FuzzFollowPath(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		f.Add(randomWalkBytes(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := compareWalks(decodeWalkCase(data), &walkShapes{}); diff != "" {
			t.Fatal(diff)
		}
	})
}
