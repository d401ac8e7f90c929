package store

// Microbenchmarks for the frozen read path at K = 1 and K = 4, over a
// synthetic graph with hub vertices, plus the freeze itself.

import (
	"fmt"
	"math/rand"
	"testing"

	"gqa/internal/rdf"
)

// frozenBenchGraph builds a deterministic graph with a skewed degree
// distribution: a few hundred hubs of degree 64 and a long tail of small
// vertices. The 160 predicates spread a hub's 64 edges over many short
// predicate runs, the regime a real KB's predicate count puts every hub in.
func frozenBenchGraph() (*Graph, []ID, []ID) {
	r := rand.New(rand.NewSource(1))
	g := New()
	const nv, np = 2000, 160
	verts := make([]ID, nv)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	preds := make([]ID, np)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < 200; i++ { // hubs
		hub := verts[i]
		for j := 0; j < 64; j++ {
			g.AddSPO(hub, preds[r.Intn(np)], verts[r.Intn(nv)])
		}
	}
	for i := 200; i < nv; i++ { // tail
		for j := 0; j < 4; j++ {
			g.AddSPO(verts[i], preds[r.Intn(np)], verts[r.Intn(nv)])
		}
	}
	return g, verts, preds
}

// benchSnapshots runs fn against the graph frozen into one part and four.
func benchSnapshots(b *testing.B, fn func(b *testing.B, sn *Snapshot, verts, preds []ID)) {
	for _, k := range []int{1, 4} {
		g, verts, preds := frozenBenchGraph()
		g.SetShards(k)
		sn := g.Freeze()
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, sn, verts, preds)
		})
	}
}

func BenchmarkHasAdjacentPred(b *testing.B) {
	// Hub probes dominate real pruning cost (class anchors and popular
	// entities have the large adjacency lists); the tail case shows the
	// small-degree floor of a handful of compares.
	benchSnapshots(b, func(b *testing.B, sn *Snapshot, verts, preds []ID) {
		for name, vs := range map[string][]ID{"hub": verts[:200], "tail": verts[200:]} {
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sn.HasAdjacentPred(vs[i%len(vs)], preds[i%len(preds)])
				}
			})
		}
	})
}

func BenchmarkOutPred(b *testing.B) {
	benchSnapshots(b, func(b *testing.B, sn *Snapshot, verts, preds []ID) {
		for i := 0; i < b.N; i++ {
			sn.OutPred(verts[i%200], preds[i%len(preds)])
		}
	})
}

func BenchmarkStoreMatchBoundS(b *testing.B) {
	sink := 0
	benchSnapshots(b, func(b *testing.B, sn *Snapshot, verts, preds []ID) {
		for i := 0; i < b.N; i++ {
			sn.Match(verts[i%200], preds[i%len(preds)], Any, func(Spo) bool { sink++; return true })
		}
	})
}

func BenchmarkStoreHas(b *testing.B) {
	benchSnapshots(b, func(b *testing.B, sn *Snapshot, verts, preds []ID) {
		for i := 0; i < b.N; i++ {
			sn.Has(verts[i%len(verts)], preds[i%len(preds)], verts[(i*7)%len(verts)])
		}
	})
}

func BenchmarkFreeze(b *testing.B) {
	g, _, _ := frozenBenchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.invalidateFrozen()
		g.Freeze()
	}
}
