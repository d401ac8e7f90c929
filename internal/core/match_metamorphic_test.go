package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gqa/internal/dict"
	"gqa/internal/faultpoint"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// runAll runs the matcher over (g, q) with settings that avoid truncation
// (huge MaxMatches), so the determinism guarantee applies.
func runAll(g *store.Graph, q *QueryGraph) ([]Match, MatchStats) {
	return FindTopKMatches(g, q, MatchOptions{TopK: 5, MaxMatches: 1 << 20})
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
		base, _ := runAll(g, q)
		want := resultSignature(base, identityMap(g))

		order := make([]store.ID, g.NumTerms())
		for i := range order {
			order[i] = store.ID(i)
		}
		ts := sortedTriples(g)
		r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g2, q2, _ := rebuildRemapped(g, q, order, ts)
		got, _ := runAll(g2, q2)
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
		base, _ := runAll(g, q)

		order := make([]store.ID, g.NumTerms())
		for i := range order {
			order[i] = store.ID(i)
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ts := sortedTriples(g)
		r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g2, q2, idMap := rebuildRemapped(g, q, order, ts)
		got, _ := runAll(g2, q2)

		// Compare in the relabeled ID space: push the baseline through
		// idMap, leave the relabeled run as-is.
		want := resultSignature(base, idMap)
		if sig := resultSignature(got, identityMap(g2)); !reflect.DeepEqual(sig, want) {
			t.Fatalf("seed %d: vertex relabel changed results\n got %v\nwant %v", seed, sig, want)
		}
	}
}

// TestSeedPanicReachesCaller: an armed matcher.worker faultpoint panics
// inside a seed. Nothing in the matcher catches it: it arrives on the
// caller's goroutine as the value it was raised with (the facade's side of
// this, the *PipelineError and its stack, is
// TestFaultMatcherPanicBecomesStructuredError), and it leaves nothing
// behind that a later search over the same inputs would meet.
func TestSeedPanicReachesCaller(t *testing.T) {
	g, ids := figure1Graph(t)
	q := phillyQuery(ids)

	faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{PanicMsg: "boom"})
	func() {
		defer faultpoint.Reset()
		defer func() {
			if r, want := recover(), "faultpoint "+faultpoint.MatcherWorker+": boom"; r != want {
				t.Fatalf("recovered %T (%v), want the string %q", r, r, want)
			}
		}()
		FindTopKMatches(g, q, MatchOptions{TopK: 10})
		t.Fatal("armed faultpoint did not panic")
	}()

	matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 10})
	if len(matches) == 0 {
		t.Fatal("no matches after the fault cleared")
	}
}

// benchSetup builds a synthetic many-seed matching workload: a class with
// nInst instances (the single TA anchor, so every instance becomes a seed
// task), each instance reaching ~fanout² two-step routes that collapse onto
// a small leaf set — heavy traversal per seed, bounded match count.
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

// BenchmarkFindTopKMatches times the search on the many-seed workload. For
// measuring while you work: what a question costs is benchmark/'s
// core.match_us_p50.
func BenchmarkFindTopKMatches(b *testing.B) {
	g, q := benchSetup(400, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 10})
		if len(matches) == 0 {
			b.Fatal("no matches")
		}
	}
}
