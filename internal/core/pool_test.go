package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// allWhQuery is "who —[p]→ whom?" over a graph with n such edges between
// distinct vertices: an all-wh question, every match of which ties.
func allWhQuery(n int) (*store.Graph, *QueryGraph) {
	g := store.New()
	p := g.Intern(rdf.Ontology("p"))
	for i := range n {
		g.AddSPO(g.Intern(rdf.Resource(fmt.Sprintf("s%d", i))), p, g.Intern(rdf.Resource(fmt.Sprintf("o%d", i))))
	}
	path := dict.Path{{Pred: p, Forward: true}}
	return g, &QueryGraph{
		Vertices: []Vertex{{Unconstrained: true, Select: true}, {Unconstrained: true}},
		Edges:    []Edge{{From: 0, To: 1, Candidates: []EdgeCandidate{{Path: path, Score: 0.5}}}},
	}
}

// TestPoolDropsOversizedResultSet: after a search whose result set grew past
// poolMaxHeld — an all-wh question that ties maxHeldMatches — the pool holds
// no result set larger than the cap, while a search that held a few
// matches leaves its matcher to the next.
func TestPoolDropsOversizedResultSet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small, smallQ := allWhQuery(3)
	big, bigQ := allWhQuery(maxHeldMatches + 1)
	if matches, _ := FindTopKMatches(small, smallQ, MatchOptions{}); matches.Len() != 6 {
		t.Fatalf("the small search returned %d matches, want 6", matches.Len())
	}
	m := matcherPool.Get().(*matcher)
	if len(m.res.rows) != 6 {
		t.Fatalf("the pool handed out a matcher with %d rows, not the small search's", len(m.res.rows))
	}
	matcherPool.Put(m)
	if _, stats := FindTopKMatches(big, bigQ, MatchOptions{}); stats.Truncated != "matches" {
		t.Fatalf("the big search was truncated %q, want the matches cap", stats.Truncated)
	}
	for range 4 {
		m := matcherPool.Get().(*matcher)
		defer matcherPool.Put(m)
		if cap(m.res.rows) > poolMaxHeld {
			t.Fatalf("the pool keeps a result set of %d rows, past poolMaxHeld = %d", cap(m.res.rows), poolMaxHeld)
		}
	}
}

// TestPoolDropsOversizedBuffers: a matcher any of whose buffers grew past
// poolMaxHeld — a round's seeds, a depth's targets, the walker's dedupe
// set, the result set's rows — is not pooled, while one whose buffers all
// fit is handed to the next search.
func TestPoolDropsOversizedBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	hub := store.New()
	p, h := hub.Intern(rdf.Ontology("p")), hub.Intern(rdf.Resource("hub"))
	for i := range poolMaxHeld + 1 {
		hub.AddSPO(h, p, hub.Intern(rdf.Resource(fmt.Sprintf("o%d", i))))
	}
	// The first walk grows the dedupe set past the cap; the second reaches
	// nothing and leaves the set as large as the first made it.
	walks := func(m *matcher) {
		m.walker.Reset(hub.FrozenView())
		if out := m.walker.Follow(nil, h, dict.Path{{Pred: p, Forward: true}}); len(out) != poolMaxHeld+1 {
			t.Fatalf("the hub walk reached %d targets", len(out))
		}
		m.walker.Follow(nil, h, dict.Path{{Pred: p, Forward: false}})
	}
	for _, c := range []struct {
		name string
		grow func(*matcher)
		kept bool
	}{
		{"small buffers", func(m *matcher) {
			m.tasks, m.frontier = make([]seedTask, poolMaxHeld), [][]store.ID{nil, make([]store.ID, poolMaxHeld)}
		}, true},
		{"seeds", func(m *matcher) { m.tasks = make([]seedTask, 0, poolMaxHeld+1) }, false},
		{"targets", func(m *matcher) { m.frontier = [][]store.ID{nil, make([]store.ID, 0, poolMaxHeld+1)} }, false},
		{"rows", func(m *matcher) { m.res.rows = make([]heldRow, 0, poolMaxHeld+1) }, false},
		{"dedupe set", walks, false},
	} {
		m := new(matcher)
		c.grow(m)
		matcherPool.Get() // empty this P's private slot, which release fills
		m.release()
		got := matcherPool.Get().(*matcher)
		if kept := got == m; kept != c.kept {
			t.Errorf("%s: pooled %v, want %v", c.name, kept, c.kept)
		}
	}
}

// TestPooledMatcherFreesQueryGraph: a finished search's QueryGraph, and
// the candidate paths its held matches chose (a held row names one by its
// index), can be collected while the matcher that ran it sits in the pool.
func TestPooledMatcherFreesQueryGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var freed atomic.Int32
	g, q, _ := fanQuery([]float64{0.8, 0.8}, []fanPath{{"likes", 1, []int{3, 2}}, {"knows", 0.5, []int{1, 1}}})
	for _, c := range q.Edges[0].Candidates {
		runtime.SetFinalizer(&c.Path[0], func(*dict.Step) { freed.Add(1) })
	}
	runtime.SetFinalizer(q, func(*QueryGraph) { freed.Add(1) })
	if matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 3}); matches.Len() == 0 {
		t.Fatal("no matches")
	}
	q = nil
	// Hold the matcher the search ran on, so the collections below do not
	// take it with the pool.
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	if len(m.res.rows) == 0 {
		t.Fatal("the pool handed out a matcher that ran no search")
	}
	for i := 0; i < 10 && freed.Load() < 3; i++ {
		runtime.GC()
	}
	if n := freed.Load(); n < 3 {
		t.Errorf("%d of the query graph and its 2 candidate paths were collected while their matcher was pooled", n)
	}
}

// readCounter is a view that counts the reads a search makes.
type readCounter struct {
	store.View
	reads int
}

func (c *readCounter) Has(s, p, o store.ID) bool { c.reads++; return c.View.Has(s, p, o) }
func (c *readCounter) HasAdjacentPred(v, p store.ID) bool {
	c.reads++
	return c.View.HasAdjacentPred(v, p)
}
func (c *readCounter) OutPred(v, p store.ID) []store.Edge { c.reads++; return c.View.OutPred(v, p) }
func (c *readCounter) InPred(v, p store.ID) []store.Edge  { c.reads++; return c.View.InPred(v, p) }
func (c *readCounter) OutPredDegree(v, p store.ID) int    { c.reads++; return c.View.OutPredDegree(v, p) }
func (c *readCounter) InPredDegree(v, p store.ID) int     { c.reads++; return c.View.InPredDegree(v, p) }

// chainQuery asks for a person two hops from a, and for what is two hops
// from that person: two-step paths on both edges and a class candidate on
// the middle vertex, the shape whose frontier a remote search hints by
// testing the targets' types.
func chainQuery() (*store.Graph, *QueryGraph) {
	g := store.New()
	typ, person := g.Intern(rdf.NewIRI(rdf.RDFType)), g.Intern(rdf.Ontology("Person"))
	p1, p2 := g.Intern(rdf.Ontology("p1")), g.Intern(rdf.Ontology("p2"))
	a := g.Intern(rdf.Resource("a"))
	for i := range 6 {
		mid, b := g.Intern(rdf.Resource(fmt.Sprintf("m%d", i))), g.Intern(rdf.Resource(fmt.Sprintf("b%d", i)))
		far, end := g.Intern(rdf.Resource(fmt.Sprintf("f%d", i))), g.Intern(rdf.Resource(fmt.Sprintf("e%d", i)))
		g.AddSPO(a, p1, mid)
		g.AddSPO(mid, p2, b)
		g.AddSPO(b, p1, far)
		g.AddSPO(far, p2, end)
		if i%2 == 0 {
			g.AddSPO(b, typ, person)
		}
	}
	path := dict.Path{{Pred: p1, Forward: true}, {Pred: p2, Forward: true}}
	return g, &QueryGraph{
		Vertices: []Vertex{
			{Candidates: []VertexCandidate{{ID: a, Score: 1}}},
			{Candidates: []VertexCandidate{{ID: person, IsClass: true, Score: 0.9}}},
			{Unconstrained: true, Select: true},
		},
		Edges: []Edge{
			{From: 0, To: 1, Candidates: []EdgeCandidate{{Path: path, Score: 0.8}}},
			{From: 1, To: 2, Candidates: []EdgeCandidate{{Path: path, Score: 0.8}}},
		},
	}
}

// TestPooledMatcherForgetsRemoteHints: a matcher that ran a search over
// remote shards, which hints its reads ahead, makes no hint reads in the
// local search it serves next: the local search reads what a fresh
// matcher reads.
func TestPooledMatcherForgetsRemoteHints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, q := chainQuery()
	local := func() int {
		rc := &readCounter{View: g.FrozenView()}
		if matches, _ := FindTopKMatches(g, q, MatchOptions{View: rc}); matches.Len() == 0 {
			t.Fatal("no matches")
		}
		return rc.reads
	}
	fresh := local()
	remote, _ := chainQuery()
	if matches, _ := FindTopKMatches(remote, q, MatchOptions{View: loopbackView(t, remote)}); matches.Len() == 0 {
		t.Fatal("no matches over the remote shards")
	}
	if after := local(); after != fresh {
		t.Errorf("a local search read %d times after a remote one, %d before", after, fresh)
	}
}
