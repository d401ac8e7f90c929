package store

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"gqa/internal/obs"
	"gqa/internal/rdf"
)

// randomRichGraph builds a random graph exercising every vertex role:
// entities, classes (via rdf:type and rdfs:subClassOf), labeled vertices,
// literal objects, and a few hub vertices whose spans take the binary (not
// the linear-tail) leg of the span searches.
func randomRichGraph(r *rand.Rand) *Graph {
	g := New()
	nv := 20 + r.Intn(30)
	verts := make([]ID, nv)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	np := 2 + r.Intn(5)
	preds := make([]ID, np)
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	typeID := g.Intern(rdf.NewIRI(rdf.RDFType))
	labelID := g.Intern(rdf.NewIRI(rdf.RDFSLabel))
	classA := g.Intern(rdf.Ontology("ClassA"))
	classB := g.Intern(rdf.Ontology("ClassB"))
	ne := 3 * nv
	for i := 0; i < ne; i++ {
		g.AddSPO(verts[r.Intn(nv)], preds[r.Intn(np)], verts[r.Intn(nv)])
	}
	// A couple of hubs.
	for i := 0; i < 32; i++ {
		g.AddSPO(verts[0], preds[0], verts[r.Intn(nv)])
		g.AddSPO(verts[r.Intn(nv)], preds[np-1], verts[1])
	}
	for i := 0; i < nv/3; i++ {
		c := classA
		if i%2 == 0 {
			c = classB
		}
		g.AddSPO(verts[r.Intn(nv)], typeID, c)
	}
	g.AddSPO(classA, g.Intern(rdf.NewIRI(rdf.RDFSSubClass)), classB)
	for i := 0; i < nv/4; i++ {
		lit := g.Intern(rdf.NewLiteral(fmt.Sprintf("label %d", i)))
		g.AddSPO(verts[r.Intn(nv)], labelID, lit)
	}
	// A data-value literal (non-label in-edge).
	lit := g.Intern(rdf.NewLiteral("1960"))
	g.AddSPO(verts[2], preds[0], lit)
	return g
}

func sortedSpos(ts []Spo) []Spo {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return ts
}

func collectVia(match func(s, p, o ID, fn func(Spo) bool), s, p, o ID) []Spo {
	var out []Spo
	match(s, p, o, func(t Spo) bool { out = append(out, t); return true })
	return sortedSpos(out)
}

func sortedIDs(ids []ID) []ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// naivePred scans a builder adjacency list for predicate p — the oracle
// for every per-predicate frozen read.
func naivePred(edges []Edge, p ID) []ID {
	var out []ID
	for _, e := range edges {
		if e.Pred == p {
			out = append(out, e.To)
		}
	}
	return sortedIDs(out)
}

func edgeTargets(span []Edge) []ID {
	var out []ID
	for _, e := range span {
		out = append(out, e.To)
	}
	return sortedIDs(out)
}

// TestFrozenEquivalence compares every snapshot operation — at one part,
// at four, and at four behind loopback shard servers — against the
// builder's own structures read naively (adjacency scans, the triple set,
// per-vertex classification) across random graphs that have seen both Add
// and Remove: Match under all binding patterns, Has, HasAdjacentPred,
// per-predicate neighbors and degrees, total degrees, PredCount,
// IsEntity/IsClass, Entities, and Stats.
func TestFrozenEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomRichGraph(r)
		for _, spo := range collectVia(g.Match, Any, Any, Any) {
			if r.Intn(4) == 0 {
				g.Remove(spo.S, spo.P, spo.O)
			}
		}
		// The shapes in turn: k1, k4, remote-k4.
		k, remote := []int{1, 4, 4}[seed%3], seed%3 == 2
		g.SetShards(k)
		n := ID(g.NumTerms())
		var pids []ID
		for p := ID(0); p < n; p++ {
			if g.PredCount(p) > 0 {
				pids = append(pids, p)
			}
		}
		wantAll := collectVia(g.Match, Any, Any, Any)

		sn := g.Freeze()
		if remote {
			addrs, _ := startLoopbackShards(t, g, k)
			var err error
			if sn, err = DialShards(addrs, g.Terms(), RemoteOptions{}); err != nil {
				t.Fatalf("seed %d: DialShards: %v", seed, err)
			}
			t.Cleanup(sn.Close)
		}
		if sn.NumShards() != k {
			t.Fatalf("seed %d: %d shards, want %d", seed, sn.NumShards(), k)
		}
		if sn.NumTerms() != int(n) || sn.NumTriples() != g.NumTriples() || sn.NumPredicates() != g.NumPredicates() {
			t.Fatalf("seed %d: snapshot sizes %d/%d/%d, graph %d/%d/%d", seed,
				sn.NumTerms(), sn.NumTriples(), sn.NumPredicates(), n, g.NumTriples(), g.NumPredicates())
		}
		for v := ID(0); v < n; v++ {
			for _, p := range pids {
				wantOut, wantIn := naivePred(g.Out(v), p), naivePred(g.In(v), p)
				if got, want := sn.HasAdjacentPred(v, p), len(wantOut)+len(wantIn) > 0; got != want {
					t.Fatalf("seed %d: HasAdjacentPred(%d,%d) = %v, builder %v", seed, v, p, got, want)
				}
				if got := sn.OutPredDegree(v, p); got != len(wantOut) {
					t.Fatalf("seed %d: OutPredDegree(%d,%d) = %d, builder %d", seed, v, p, got, len(wantOut))
				}
				if got := sn.InPredDegree(v, p); got != len(wantIn) {
					t.Fatalf("seed %d: InPredDegree(%d,%d) = %d, builder %d", seed, v, p, got, len(wantIn))
				}
				if got := edgeTargets(sn.OutPred(v, p)); !reflect.DeepEqual(got, wantOut) {
					t.Fatalf("seed %d: OutPred(%d,%d) = %v, builder %v", seed, v, p, got, wantOut)
				}
				if got := edgeTargets(sn.InPred(v, p)); !reflect.DeepEqual(got, wantIn) {
					t.Fatalf("seed %d: InPred(%d,%d) = %v, builder %v", seed, v, p, got, wantIn)
				}
				if got, want := collectVia(sn.Match, v, p, Any), collectVia(g.Match, v, p, Any); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Match(%d,%d,Any) = %v, builder %v", seed, v, p, got, want)
				}
				if got, want := collectVia(sn.Match, Any, p, v), collectVia(g.Match, Any, p, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Match(Any,%d,%d) = %v, builder %v", seed, p, v, got, want)
				}
			}
			if sn.OutDegree(v) != len(g.Out(v)) || sn.InDegree(v) != len(g.In(v)) || sn.Degree(v) != g.Degree(v) {
				t.Fatalf("seed %d: degrees of %d diverge", seed, v)
			}
			if got, want := collectVia(sn.Match, v, Any, Any), collectVia(g.Match, v, Any, Any); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Match(%d,Any,Any) differs", seed, v)
			}
			if got, want := collectVia(sn.Match, Any, Any, v), collectVia(g.Match, Any, Any, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Match(Any,Any,%d) differs", seed, v)
			}
			if sn.IsEntity(v) != g.IsEntity(v) {
				t.Fatalf("seed %d: IsEntity(%d) mismatch", seed, v)
			}
			if sn.IsClass(v) != g.IsClass(v) {
				t.Fatalf("seed %d: IsClass(%d) mismatch", seed, v)
			}
		}
		for _, p := range pids {
			if got := sn.PredCount(p); got != g.PredCount(p) {
				t.Fatalf("seed %d: PredCount(%d) = %d, builder %d", seed, p, got, g.PredCount(p))
			}
			if got := collectVia(sn.Match, Any, p, Any); !reflect.DeepEqual(got, collectVia(g.Match, Any, p, Any)) {
				t.Fatalf("seed %d: Match(Any,%d,Any) differs", seed, p)
			}
		}
		if got := collectVia(sn.Match, Any, Any, Any); !reflect.DeepEqual(got, wantAll) {
			t.Fatalf("seed %d: full scan differs", seed)
		}
		for _, spo := range wantAll {
			if !sn.Has(spo.S, spo.P, spo.O) {
				t.Fatalf("seed %d: Has misses present triple %v", seed, spo)
			}
			if got := collectVia(sn.Match, spo.S, spo.P, spo.O); len(got) != 1 || got[0] != spo {
				t.Fatalf("seed %d: fully bound Match(%v) = %v", seed, spo, got)
			}
		}
		// Negative probes.
		for i := 0; i < 200; i++ {
			s, p, o := ID(r.Intn(int(n))), ID(r.Intn(int(n))), ID(r.Intn(int(n)))
			if got, want := sn.Has(s, p, o), g.Has(s, p, o); got != want {
				t.Fatalf("seed %d: Has(%d,%d,%d) = %v, want %v", seed, s, p, o, got, want)
			}
		}
		if got, want := sn.Entities(), g.Entities(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Entities = %v, builder %v", seed, got, want)
		}
		if got, want := sn.Stats(), g.Stats(); got != want {
			t.Fatalf("seed %d: Stats = %+v, builder %+v", seed, got, want)
		}
	}
}

// TestFrozenAdjacencySorted pins the CSR layout contract: every vertex
// span is sorted by (Pred, To), so binary searches are valid.
func TestFrozenAdjacencySorted(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(7)))
	sn := g.Freeze()
	for v := ID(0); int(v) < sn.NumTerms(); v++ {
		for _, span := range [][]Edge{sn.Out(v), sn.In(v)} {
			for i := 1; i < len(span); i++ {
				a, b := span[i-1], span[i]
				if a.Pred > b.Pred || (a.Pred == b.Pred && a.To > b.To) {
					t.Fatalf("span of %d not sorted at %d: %v > %v", v, i, a, b)
				}
			}
		}
	}
}

// TestFreezeLifecycle pins the freeze contract: Freeze is idempotent while
// the graph is unchanged, any mutation (Add or Remove) invalidates the
// installed snapshot, and re-freezing reflects the mutation. A snapshot
// handed out earlier keeps serving its pre-mutation view.
func TestFreezeLifecycle(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("a"))
	b := g.Intern(rdf.Resource("b"))
	p := g.Intern(rdf.Ontology("p"))
	g.AddSPO(a, p, b)

	sn1 := g.Freeze()
	if g.Freeze() != sn1 || g.Frozen() != sn1 {
		t.Fatal("Freeze on an unchanged graph must return the installed snapshot")
	}

	c := g.Intern(rdf.Resource("c"))
	if g.Frozen() != sn1 {
		t.Fatal("interning alone must not invalidate (no triples changed)")
	}
	g.AddSPO(a, p, c)
	if g.Frozen() != nil {
		t.Fatal("Add must invalidate the installed snapshot")
	}
	sn2 := g.Freeze()
	if sn2 == sn1 {
		t.Fatal("re-freeze after mutation must build a new snapshot")
	}
	if sn2.Generation() <= sn1.Generation() {
		t.Fatalf("generation must advance: %d then %d", sn1.Generation(), sn2.Generation())
	}
	if !sn2.Has(a, p, c) {
		t.Fatal("re-frozen snapshot must reflect the added triple")
	}
	if sn1.Has(a, p, c) {
		t.Fatal("the old snapshot must keep its pre-mutation view")
	}

	// Duplicate adds are no-ops and must not invalidate.
	g.AddSPO(a, p, c)
	if g.Frozen() != sn2 {
		t.Fatal("duplicate Add must not invalidate")
	}

	if !g.Remove(a, p, c) {
		t.Fatal("Remove failed")
	}
	if g.Frozen() != nil {
		t.Fatal("Remove must invalidate the installed snapshot")
	}
	sn3 := g.Freeze()
	if sn3.Has(a, p, c) {
		t.Fatal("re-frozen snapshot must reflect the removal")
	}
	if !sn3.Has(a, p, b) {
		t.Fatal("unrelated triple lost across the lifecycle")
	}

	// Removing an absent triple is a no-op and must not invalidate.
	if g.Remove(a, p, c) {
		t.Fatal("Remove of absent triple reported true")
	}
	if g.Frozen() != sn3 {
		t.Fatal("no-op Remove must not invalidate")
	}
}

// TestSnapshotReadersDuringMutation is the -race coverage for the
// snapshot immutability contract: readers hammer a captured snapshot's
// full API while a writer mutates the mutable graph (Add, Remove, and
// interning fresh terms) in the background.
func TestSnapshotReadersDuringMutation(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(42)))
	a := g.Intern(rdf.Resource("w-a"))
	b := g.Intern(rdf.Resource("w-b"))
	p := g.Intern(rdf.Ontology("w-p"))
	sn := g.Freeze()
	n := ID(sn.NumTerms())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 3000; i++ {
			g.AddSPO(a, p, b)
			g.Remove(a, p, b)
			if i%100 == 0 {
				fresh := g.Intern(rdf.Resource(fmt.Sprintf("w-fresh-%d", i)))
				g.AddSPO(a, p, fresh)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := ID(r.Intn(int(n)))
				sn.HasAdjacentPred(v, p)
				sn.Out(v)
				sn.InPred(v, p)
				sn.Has(v, p, v)
				sn.IsEntity(v)
				sn.Count(v, Any, Any)
				_ = sn.Entities()
				_ = sn.Stats()
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestFreezeMetricsExposed pins the observability acceptance criterion:
// after a freeze, the snapshot build-time histogram and size gauge are
// present in the Prometheus exposition (what /metrics serves).
func TestFreezeMetricsExposed(t *testing.T) {
	g := smallGraph(t)
	g.Freeze()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{"gqa_store_snapshot_build_seconds", "gqa_store_snapshot_bytes", "gqa_store_snapshot_builds_total"} {
		if !strings.Contains(text, name) {
			t.Fatalf("metric %s missing from exposition", name)
		}
	}
	if sn := g.Frozen(); sn.Bytes() <= 0 {
		t.Fatal("snapshot must report a positive byte size")
	}
}

// TestFreezeShardedReturnsSnapshot is the regression for the sharded
// freeze: Freeze and FreezeCtx on a SetShards(4) graph return the K=4
// snapshot FrozenView serves — they used to return nil there, so
// `g.Freeze().Bytes()` dereferenced nil once a graph was sharded.
func TestFreezeShardedReturnsSnapshot(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(3)))
	g.SetShards(4)
	sn := g.Freeze()
	if sn == nil || sn.NumShards() != 4 || sn.Bytes() <= 0 {
		t.Fatalf("sharded Freeze = %v", sn)
	}
	if got := g.FreezeCtx(context.Background()); got != sn {
		t.Fatal("FreezeCtx on an unchanged sharded graph rebuilt the snapshot")
	}
	if g.FrozenView() != View(sn) || g.Frozen() != sn {
		t.Fatal("FrozenView/Frozen do not serve the snapshot Freeze returned")
	}
}

// TestFrozenViewBuildsOnce: FrozenView on a stale graph freezes on demand,
// and however many readers arrive at once exactly one of them builds (run
// under -race: the others must wait for, then share, that build).
func TestFrozenViewBuildsOnce(t *testing.T) {
	for _, k := range []int{1, 4} {
		g := randomRichGraph(rand.New(rand.NewSource(8)))
		g.SetShards(k)
		g.Freeze()
		a, _ := g.Lookup(rdf.Resource("v0"))
		p, _ := g.Lookup(rdf.Ontology("p0"))
		g.AddSPO(a, p, g.Intern(rdf.Resource("late")))
		if g.Frozen() != nil {
			t.Fatal("graph not stale after Add")
		}
		builds := obs.DefaultCounter("gqa_store_snapshot_builds_total", "")
		before := builds.Value()
		views := make([]View, 16)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				views[i] = g.FrozenView()
			}(i)
		}
		wg.Wait()
		if got := builds.Value() - before; got != 1 {
			t.Fatalf("k=%d: %d concurrent FrozenView calls caused %d builds, want 1", k, len(views), got)
		}
		for i, v := range views {
			if v == nil || v != views[0] || v.Generation() != g.Generation() {
				t.Fatalf("k=%d: reader %d got view %v", k, i, v)
			}
		}
	}
}
