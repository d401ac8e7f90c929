package core

// A brute-force reference implementation of Definition 3/6 and property
// tests checking that the TA-style matcher agrees with it on random query
// graphs over random RDF graphs — the strongest correctness evidence for
// the paper's central algorithm. The reference reads only the mutable
// builder (Out/In/InstancesOf/HasType) and walks paths itself, so it
// shares no code with the frozen read path the matcher runs on.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// bruteForceMatches enumerates every injective assignment of query
// vertices to graph vertices, checks Definition 3 directly, and scores by
// Definition 6 (best path/candidate justification per edge/vertex).
func bruteForceMatches(g *store.Graph, q *QueryGraph) []Match {
	n := len(q.Vertices)
	if n == 0 {
		return nil
	}
	universe := allVertices(g)
	assign := make([]store.ID, n)
	via := make([]store.ID, n)
	scores := make([]float64, n)
	var out []Match

	var rec func(vi int)
	rec = func(vi int) {
		if vi == n {
			m, ok := checkAssignment(g, q, assign, via, scores)
			if ok {
				out = append(out, m)
			}
			return
		}
		v := &q.Vertices[vi]
		candidates := universe
		if !v.Unconstrained {
			candidates = nil
			seen := map[store.ID]bool{}
			for _, c := range v.Candidates {
				if c.IsClass {
					for _, inst := range g.InstancesOf(c.ID) {
						if !seen[inst] {
							seen[inst] = true
							candidates = append(candidates, inst)
						}
					}
				} else if !seen[c.ID] {
					seen[c.ID] = true
					candidates = append(candidates, c.ID)
				}
			}
		}
	cand:
		for _, u := range candidates {
			for j := 0; j < vi; j++ {
				if assign[j] == u {
					continue cand
				}
			}
			acc, ok := bruteAccept(g, v, u)
			if !ok {
				continue
			}
			assign[vi], via[vi], scores[vi] = u, acc.via, acc.score
			rec(vi + 1)
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

func allVertices(g *store.Graph) []store.ID {
	var out []store.ID
	for v := 0; v < g.NumTerms(); v++ {
		id := store.ID(v)
		if g.Term(id).IsIRI() && g.Degree(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

func bruteAccept(g *store.Graph, v *Vertex, u store.ID) (acceptance, bool) {
	if v.Unconstrained {
		return acceptance{via: store.None, score: 1.0}, true
	}
	best := acceptance{via: store.None, score: -1}
	for _, c := range v.Candidates {
		switch {
		case !c.IsClass && c.ID == u:
			if c.Score > best.score {
				best = acceptance{via: store.None, score: c.Score}
			}
		case c.IsClass && g.HasType(u, c.ID):
			if c.Score > best.score {
				best = acceptance{via: c.ID, score: c.Score}
			}
		}
	}
	if best.score < 0 {
		return acceptance{}, false
	}
	return best, true
}

func checkAssignment(g *store.Graph, q *QueryGraph, assign, via []store.ID, scores []float64) (Match, bool) {
	m := Match{
		Assignment: append([]store.ID(nil), assign...),
		Via:        append([]store.ID(nil), via...),
		EdgePaths:  make([]dict.Path, len(q.Edges)),
	}
	score := 0.0
	for _, s := range scores {
		score += math.Log(s)
	}
	for ei, e := range q.Edges {
		found := false
		for _, pc := range e.Candidates {
			if naivePathConnects(g, assign[e.From], assign[e.To], pc.Path) {
				m.EdgePaths[ei] = pc.Path
				score += math.Log(pc.Score)
				found = true
				break
			}
		}
		if !found {
			return Match{}, false
		}
	}
	m.Score = score
	return m, true
}

// naivePathConnects is Definition 3 condition 3 by exhaustive walk over the
// builder's adjacency lists: some simple route realizes p from u to w, or
// from w to u.
func naivePathConnects(g *store.Graph, u, w store.ID, p dict.Path) bool {
	return naiveReaches(g, []store.ID{u}, w, p) || naiveReaches(g, []store.ID{w}, u, p)
}

// naiveReaches reports whether the remaining steps lead from the end of
// route to target without revisiting a vertex on the route.
func naiveReaches(g *store.Graph, route []store.ID, target store.ID, steps dict.Path) bool {
	cur := route[len(route)-1]
	if len(steps) == 0 {
		return cur == target
	}
	adj := g.Out(cur)
	if !steps[0].Forward {
		adj = g.In(cur)
	}
next:
	for _, e := range adj {
		if e.Pred != steps[0].Pred {
			continue
		}
		for _, seen := range route {
			if seen == e.To {
				continue next
			}
		}
		if naiveReaches(g, append(route[:len(route):len(route)], e.To), target, steps[1:]) {
			return true
		}
	}
	return false
}

// loopbackView shards g four ways, sends every part through the shard-part
// file format, serves each from a shard server on loopback TCP, and
// returns the dialed snapshot — the deployment shape in which every read
// the matcher makes crosses a process boundary's worth of code.
func loopbackView(t *testing.T, g *store.Graph) store.View {
	t.Helper()
	k := g.SetShards(4)
	addrs := make([]string, k)
	for i := range addrs {
		var buf bytes.Buffer
		if err := store.SaveShardPart(&buf, g, i); err != nil {
			t.Fatal(err)
		}
		part, err := store.LoadShardPart(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := store.NewShardServer(part)
		go srv.Serve(ln) //nolint:errcheck // returns net.ErrClosed after Close
		t.Cleanup(srv.Close)
		addrs[i] = ln.Addr().String()
	}
	sn, err := store.DialShards(addrs, g.Terms(), store.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Close)
	return sn
}

// randomQuerySetup builds a random graph and a random 2–3 vertex query
// graph with candidate lists drawn from it.
func randomQuerySetup(r *rand.Rand) (*store.Graph, *QueryGraph) {
	g := store.New()
	nv := 6 + r.Intn(10)
	verts := make([]store.ID, nv)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	np := 2 + r.Intn(3)
	preds := make([]store.ID, np)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	// A class with some instances.
	class := g.Intern(rdf.Ontology("C"))
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	for i := 0; i < nv/2; i++ {
		g.AddSPO(verts[r.Intn(nv)], typ, class)
	}
	ne := nv + r.Intn(3*nv)
	for i := 0; i < ne; i++ {
		s, o := verts[r.Intn(nv)], verts[r.Intn(nv)]
		if s != o {
			g.AddSPO(s, preds[r.Intn(np)], o)
		}
	}

	// Query: 2 or 3 vertices in a path shape.
	qn := 2 + r.Intn(2)
	q := &QueryGraph{}
	for i := 0; i < qn; i++ {
		v := Vertex{Arg: Argument{Text: fmt.Sprintf("a%d", i)}}
		switch r.Intn(3) {
		case 0:
			v.Unconstrained = true
			v.Arg.Wh = true
		case 1:
			// Entity candidates.
			k := 1 + r.Intn(3)
			for j := 0; j < k; j++ {
				v.Candidates = append(v.Candidates, VertexCandidate{
					ID:    verts[r.Intn(nv)],
					Score: 0.2 + 0.8*r.Float64(),
				})
			}
			sort.SliceStable(v.Candidates, func(a, b int) bool { return v.Candidates[a].Score > v.Candidates[b].Score })
		default:
			v.Candidates = []VertexCandidate{{ID: class, IsClass: true, Score: 0.5 + 0.5*r.Float64()}}
		}
		q.Vertices = append(q.Vertices, v)
	}
	q.Vertices[0].Select = true
	d := dict.New()
	for i := 1; i < qn; i++ {
		var cands []EdgeCandidate
		k := 1 + r.Intn(2)
		for j := 0; j < k; j++ {
			var p dict.Path
			plen := 1
			if r.Intn(4) == 0 {
				plen = 2
			}
			for s := 0; s < plen; s++ {
				p = append(p, dict.Step{Pred: preds[r.Intn(np)], Forward: r.Intn(2) == 0})
			}
			cands = append(cands, EdgeCandidate{Path: p, Score: 0.2 + 0.8*r.Float64()})
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].Score > cands[b].Score })
		phrase := d.Add(fmt.Sprintf("rel%d", i), nil)
		q.Edges = append(q.Edges, Edge{From: i - 1, To: i, Phrase: phrase, Candidates: cands})
	}
	return g, q
}

func matchKey(m Match) string {
	s := ""
	for _, u := range m.Assignment {
		s += fmt.Sprintf("%d.", u)
	}
	return s
}

// viewOf builds the read surface of one deployment shape over g.
type viewOf func(t *testing.T, g *store.Graph) store.View

// storeShapes are the deployment shapes of the store that every quick
// property of the matcher runs over: one part, four in-process parts, and
// four parts behind loopback shard servers (where the reads go through the
// request's read set and travel in batches). A remote case dials four
// servers, so that shape runs a third of the cases.
var storeShapes = []struct {
	name   string
	divide int
	view   viewOf
}{
	{"k1", 1, func(t *testing.T, g *store.Graph) store.View { return g.FrozenView() }},
	{"k4", 1, func(t *testing.T, g *store.Graph) store.View { g.SetShards(4); return g.FrozenView() }},
	{"remote-k4", 3, loopbackView},
}

// quickOverShapes checks a seeded property count times in every shape.
func quickOverShapes(t *testing.T, count int, property func(t *testing.T, seed int64, view viewOf) bool) {
	for _, shape := range storeShapes {
		t.Run(shape.name, func(t *testing.T) {
			f := func(seed int64) bool { return property(t, seed, shape.view) }
			if err := quick.Check(f, &quick.Config{MaxCount: count / shape.divide}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickMatcherAgreesWithBruteForce: the top-k matcher must find
// exactly the assignments the brute-force reference finds within the
// retained score range, with identical scores — in every deployment shape
// of the store.
func TestQuickMatcherAgreesWithBruteForce(t *testing.T) {
	quickOverShapes(t, 60, matcherAgreesWithBruteForce)
}

func matcherAgreesWithBruteForce(t *testing.T, seed int64, view viewOf) bool {
	r := rand.New(rand.NewSource(seed))
	g, q := randomQuerySetup(r)
	ref := bruteForceMatches(g, q)
	got, _ := FindTopKMatches(g, q, MatchOptions{TopK: 1000, Exhaustive: true, View: view(t, g)})

	refByKey := make(map[string]float64, len(ref))
	for _, m := range ref {
		if old, ok := refByKey[matchKey(m)]; !ok || m.Score > old {
			refByKey[matchKey(m)] = m.Score
		}
	}
	gotByKey := make(map[string]float64, len(got))
	for _, m := range got {
		gotByKey[matchKey(m)] = m.Score
	}
	if len(refByKey) != len(gotByKey) {
		t.Logf("seed %d: ref %d matches, got %d (query %s)", seed, len(refByKey), len(gotByKey), q)
		return false
	}
	for k, rs := range refByKey {
		gs, ok := gotByKey[k]
		if !ok {
			t.Logf("seed %d: missing assignment %s", seed, k)
			return false
		}
		if math.Abs(gs-rs) > 1e-9 {
			t.Logf("seed %d: score mismatch %s: %f vs %f", seed, k, gs, rs)
			return false
		}
	}
	return true
}

// TestQuickTopKIsBruteForceTopK is the oracle over what the search returns
// with its threshold on (the stopping rule between rounds and the score
// bound inside a seed): for a random k, exactly the brute-force assignments
// (each at its best score) that score at least the k-th best of them, with
// the same scores, in canonical order — in every deployment shape.
func TestQuickTopKIsBruteForceTopK(t *testing.T) {
	quickOverShapes(t, 90, func(t *testing.T, seed int64, view viewOf) bool {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		k := 1 + r.Intn(5)
		got, stats := FindTopKMatches(g, q, MatchOptions{TopK: k, View: view(t, g)})

		best := map[string]Match{}
		for _, m := range bruteForceMatches(g, q) {
			if old, ok := best[matchKey(m)]; !ok || m.Score > old.Score {
				best[matchKey(m)] = m
			}
		}
		var want []Match
		for _, m := range best {
			want = append(want, m)
		}
		canonical := func(a, b Match) int {
			if c := cmp.Compare(b.Score, a.Score); c != 0 {
				return c
			}
			return cmp.Compare(base36Key(a), base36Key(b))
		}
		slices.SortFunc(want, canonical)
		if len(want) > k {
			n := k
			for n < len(want) && want[n].Score == want[k-1].Score {
				n++
			}
			want = want[:n]
		}
		if len(got) != len(want) || stats.MatchesKept != len(want) || stats.Truncated != "" {
			t.Logf("seed %d k=%d: got %d matches (%d kept, truncated %q), brute force says %d (query %s)",
				seed, k, len(got), stats.MatchesKept, stats.Truncated, len(want), q)
			return false
		}
		for i := range want {
			if matchKey(got[i]) != matchKey(want[i]) || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Logf("seed %d k=%d: match %d is %s at %f, brute force says %s at %f",
					seed, k, i, matchKey(got[i]), got[i].Score, matchKey(want[i]), want[i].Score)
				return false
			}
		}
		return true
	})
}

// base36Key is the documented tie order of the canonical result: the
// assignment's IDs in base 36, each followed by a dot, compared as text.
func base36Key(m Match) string {
	s := ""
	for _, u := range m.Assignment {
		s += strconv.FormatUint(uint64(u), 36) + "."
	}
	return s
}

// TestQuickTATopKIsPrefixOfExhaustive: with early termination on, the
// returned matches must be exactly the top k (ties at the cut included) of
// the exhaustive result — in every deployment shape of the store.
func TestQuickTATopKIsPrefixOfExhaustive(t *testing.T) {
	quickOverShapes(t, 60, func(t *testing.T, seed int64, view viewOf) bool {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		k := 1 + r.Intn(3)
		v := view(t, g)
		ta, _ := FindTopKMatches(g, q, MatchOptions{TopK: k, View: v})
		ex, _ := FindTopKMatches(g, q, MatchOptions{TopK: k, Exhaustive: true, View: v})
		if len(ta) != len(ex) {
			t.Logf("seed %d k=%d: TA %d matches, exhaustive %d", seed, k, len(ta), len(ex))
			return false
		}
		for i := range ta {
			if math.Abs(ta[i].Score-ex[i].Score) > 1e-9 {
				t.Logf("seed %d: score %d differs", seed, i)
				return false
			}
		}
		// Same assignment sets per score bucket.
		taSet := map[string]bool{}
		exSet := map[string]bool{}
		for _, m := range ta {
			taSet[matchKey(m)] = true
		}
		for _, m := range ex {
			exSet[matchKey(m)] = true
		}
		for k := range taSet {
			if !exSet[k] {
				return false
			}
		}
		return true
	})
}

// TestQuickPruningNeverChangesResults: neighborhood pruning is an
// optimization, not a semantics change — in every deployment shape of the
// store.
func TestQuickPruningNeverChangesResults(t *testing.T) {
	quickOverShapes(t, 80, func(t *testing.T, seed int64, view viewOf) bool {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		v := view(t, g)
		a, _ := FindTopKMatches(g, q, MatchOptions{TopK: 1000, Exhaustive: true, View: v})
		b, _ := FindTopKMatches(g, q, MatchOptions{TopK: 1000, Exhaustive: true, DisablePruning: true, View: v})
		if len(a) != len(b) {
			t.Logf("seed %d: %d vs %d matches", seed, len(a), len(b))
			return false
		}
		for i := range a {
			if matchKey(a[i]) != matchKey(b[i]) || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	})
}
