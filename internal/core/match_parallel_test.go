package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gqa/internal/dict"
	"gqa/internal/faultpoint"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// runAt runs the matcher over (g, q) at the given parallelism with
// settings that avoid truncation (huge MaxMatches), so the determinism
// guarantee applies.
func runAt(g *store.Graph, q *QueryGraph, p int) ([]Match, MatchStats) {
	return FindTopKMatches(g, q, MatchOptions{TopK: 5, MaxMatches: 1 << 20, Parallelism: p})
}

// scheduleFree is stats without the fields that may differ between two
// complete runs of one search above one worker: the resolved worker count,
// and Steps and MatchesFound — what the score bound left to do inside the
// seeds, which depends on when the shared cut rose.
func scheduleFree(stats MatchStats) MatchStats {
	stats.Parallelism, stats.Steps, stats.MatchesFound = 0, 0, 0
	return stats
}

// TestQuickParallelIdenticalToSequential is the differential harness at
// the matcher level: across random graphs and queries, the parallel
// search (P = 2, 8) must return byte-identical matches — assignments,
// justifications, edge paths, scores, order — and the same rounds, seeds,
// stop and result size as the sequential baseline (P = 1).
func TestQuickParallelIdenticalToSequential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		want, wantStats := runAt(g, q, 1)
		for _, p := range []int{2, 8} {
			got, gotStats := runAt(g, q, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: P=%d matches differ\n got %v\nwant %v", seed, p, got, want)
			}
			// What the round barrier decides is scheduling-independent,
			// because the cut at a barrier is.
			if scheduleFree(gotStats) != scheduleFree(wantStats) {
				t.Fatalf("seed %d: P=%d stats differ:\n got %+v\nwant %+v", seed, p, gotStats, wantStats)
			}
		}
	}
}

// rebuildRemapped reconstructs (g, q) with terms interned in internOrder
// and triples inserted in tripleOrder, returning the remapped graph and
// query plus the old→new ID map. Identity orders reproduce g exactly;
// permutations implement the two metamorphic transformations (triple
// shuffling permutes only tripleOrder, vertex relabeling permutes
// internOrder too).
func rebuildRemapped(g *store.Graph, q *QueryGraph, internOrder []store.ID, triples []rdf.Triple) (*store.Graph, *QueryGraph, map[store.ID]store.ID) {
	g2 := store.New()
	idMap := make(map[store.ID]store.ID, len(internOrder))
	for _, old := range internOrder {
		idMap[old] = g2.Intern(g.Term(old))
	}
	for _, tr := range triples {
		if err := g2.Add(tr); err != nil {
			panic(err)
		}
	}
	q2 := &QueryGraph{}
	for _, v := range q.Vertices {
		v2 := v
		v2.Candidates = nil
		for _, c := range v.Candidates {
			c.ID = idMap[c.ID]
			v2.Candidates = append(v2.Candidates, c)
		}
		q2.Vertices = append(q2.Vertices, v2)
	}
	for _, e := range q.Edges {
		e2 := e
		e2.Candidates = nil
		for _, c := range e.Candidates {
			p2 := make(dict.Path, len(c.Path))
			for i, s := range c.Path {
				p2[i] = dict.Step{Pred: idMap[s.Pred], Forward: s.Forward}
			}
			c.Path = p2
			e2.Candidates = append(e2.Candidates, c)
		}
		q2.Edges = append(q2.Edges, e2)
	}
	return g2, q2, idMap
}

// sortedTriples returns the graph's triples in a deterministic order (the
// map-backed Triples() order is random) so the shuffles below are
// reproducible from the seed.
func sortedTriples(g *store.Graph) []rdf.Triple {
	ts := g.Triples()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}

// resultSignature summarizes a match list as score-sorted (key, score)
// lines with assignments remapped through idMap, so results over a
// relabeled graph can be compared to the baseline.
func resultSignature(ms []Match, idMap map[store.ID]store.ID) []string {
	var out []string
	for _, m := range ms {
		k := ""
		for _, u := range m.Assignment {
			k += fmt.Sprintf("%d.", idMap[u])
		}
		out = append(out, fmt.Sprintf("%s score=%.12f", k, m.Score))
	}
	sort.Strings(out)
	return out
}

func identityMap(g *store.Graph) map[store.ID]store.ID {
	m := make(map[store.ID]store.ID, g.NumTerms())
	for v := 0; v < g.NumTerms(); v++ {
		m[store.ID(v)] = store.ID(v)
	}
	return m
}

// TestQuickMetamorphicTripleShuffle: inserting the graph's triples in a
// different order (same interning order, so IDs are stable) permutes
// every adjacency list and instance list, but must not change the top-k
// matches or their scores.
func TestQuickMetamorphicTripleShuffle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		base, _ := runAt(g, q, 4)
		want := resultSignature(base, identityMap(g))

		order := make([]store.ID, g.NumTerms())
		for i := range order {
			order[i] = store.ID(i)
		}
		ts := sortedTriples(g)
		r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g2, q2, _ := rebuildRemapped(g, q, order, ts)
		got, _ := runAt(g2, q2, 4)
		if sig := resultSignature(got, identityMap(g2)); !reflect.DeepEqual(sig, want) {
			t.Fatalf("seed %d: triple shuffle changed results\n got %v\nwant %v", seed, sig, want)
		}
	}
}

// TestQuickMetamorphicVertexRelabel: re-interning the terms in a random
// order relabels every vertex ID (and reorders ID-keyed iteration), but
// the top-k must be isomorphic — same scores, assignments corresponding
// under the relabeling.
func TestQuickMetamorphicVertexRelabel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		base, _ := runAt(g, q, 4)

		order := make([]store.ID, g.NumTerms())
		for i := range order {
			order[i] = store.ID(i)
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ts := sortedTriples(g)
		r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g2, q2, idMap := rebuildRemapped(g, q, order, ts)
		got, _ := runAt(g2, q2, 4)

		// Compare in the relabeled ID space: push the baseline through
		// idMap, leave the relabeled run as-is.
		want := resultSignature(base, idMap)
		if sig := resultSignature(got, identityMap(g2)); !reflect.DeepEqual(sig, want) {
			t.Fatalf("seed %d: vertex relabel changed results\n got %v\nwant %v", seed, sig, want)
		}
	}
}

// TestParallelWorkerPanicDrainsPool: an armed matcher.worker faultpoint
// panics inside a pool goroutine. The pool must drain (no deadlock, no
// leaked worker wedging later searches) and the panic must resurface on
// the caller's goroutine as *WorkerPanic carrying the worker stack.
func TestParallelWorkerPanicDrainsPool(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)

	faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{PanicMsg: "boom"})
	func() {
		defer faultpoint.Reset()
		defer func() {
			r := recover()
			wp, ok := r.(*WorkerPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *WorkerPanic", r, r)
			}
			if len(wp.Stack) == 0 {
				t.Fatal("WorkerPanic carries no stack")
			}
			if wp.Error() == "" {
				t.Fatal("empty WorkerPanic message")
			}
		}()
		FindTopKMatches(g, q, MatchOptions{TopK: 10, Parallelism: 8})
		t.Fatal("armed faultpoint did not panic")
	}()

	// The same matcher inputs must work normally after the fault clears —
	// the panic left no global state behind.
	matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 10, Parallelism: 8})
	if len(matches) == 0 {
		t.Fatal("no matches after recovery")
	}
}

// TestParallelDelayJitterKeepsDeterminism injects a per-seed delay, which
// scrambles worker completion order as thoroughly as a loaded scheduler
// would, and requires output still identical to sequential.
func TestParallelDelayJitterKeepsDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, q := randomQuerySetup(r)
	want, _ := runAt(g, q, 1)

	faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{Delay: 500 * time.Microsecond})
	defer faultpoint.Reset()
	got, _ := runAt(g, q, 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delay jitter changed results\n got %v\nwant %v", got, want)
	}
}

// benchSetup builds a synthetic matching workload heavy enough for the
// pool to matter: a class with nInst instances (the single TA anchor, so
// every instance becomes a seed task), each instance reaching ~fanout²
// two-step routes that collapse onto a small leaf set — heavy traversal
// per seed, bounded match count.
func benchSetup(nInst, fanout int) (*store.Graph, *QueryGraph) {
	g := store.New()
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	class := g.Intern(rdf.Ontology("Thing"))
	p1 := g.Intern(rdf.Ontology("p1"))
	p2 := g.Intern(rdf.Ontology("p2"))
	nMid, nLeaf := 200, 10
	mids := make([]store.ID, nMid)
	for i := range mids {
		mids[i] = g.Intern(rdf.Resource(fmt.Sprintf("m%d", i)))
	}
	leaves := make([]store.ID, nLeaf)
	for i := range leaves {
		leaves[i] = g.Intern(rdf.Resource(fmt.Sprintf("l%d", i)))
	}
	for j := 0; j < nMid; j++ {
		for k := 0; k < fanout; k++ {
			g.AddSPO(mids[j], p2, leaves[(j*7+k)%nLeaf])
		}
	}
	for i := 0; i < nInst; i++ {
		inst := g.Intern(rdf.Resource(fmt.Sprintf("i%d", i)))
		g.AddSPO(inst, typ, class)
		for k := 0; k < fanout; k++ {
			g.AddSPO(inst, p1, mids[(i*13+k*3)%nMid])
		}
	}
	path := dict.Path{{Pred: p1, Forward: true}, {Pred: p2, Forward: true}}
	phrase := dict.New().Add("linked to", []dict.Entry{{Path: path, Score: 0.8}})
	q := &QueryGraph{
		Vertices: []Vertex{
			{Arg: Argument{Text: "what", Wh: true}, Unconstrained: true, Select: true},
			{Arg: Argument{Text: "thing"}, Candidates: []VertexCandidate{
				{ID: class, IsClass: true, Score: 0.9},
			}},
		},
		Edges: []Edge{{From: 1, To: 0, Phrase: phrase,
			Candidates: []EdgeCandidate{{Path: path, Score: 0.8}}}},
	}
	return g, q
}

// BenchmarkFindTopKMatches compares the sequential search to the pool at
// increasing widths on the same many-seed workload. For measuring while
// you work: what the pool buys on realistic questions is benchmark/'s
// core.match_parallel_speedup.
func BenchmarkFindTopKMatches(b *testing.B) {
	g, q := benchSetup(400, 40)
	for _, p := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("par-%d", p)
		if p == 1 {
			name = "seq"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 10, Parallelism: p})
				if len(matches) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}
