package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// collectExact gathers a Match iteration without sorting — the order
// contract is that every scan streams in exactly the single-part
// snapshot's order at every shard count, not merely the same set.
func collectExact(match func(s, p, o ID, fn func(Spo) bool), s, p, o ID) []Spo {
	var out []Spo
	match(s, p, o, func(t Spo) bool { out = append(out, t); return true })
	return out
}

// hasRow is one membership probe and the answer it must get.
type hasRow struct {
	s, p, o ID
	want    bool
}

// crossPartHasRows builds the probes whose endpoints live in different
// parts of a k-way split of sn (the K=1 snapshot, the reference): for a
// sample of cross-part edges (s, p, o), the present edge itself, the same
// endpoints under a predicate that does not connect them, and the same
// subject and predicate with an absent object on another part. Every such
// probe is answered from s's out span in s's part, wherever o lives.
func crossPartHasRows(t *testing.T, sn *Snapshot, k int) []hasRow {
	t.Helper()
	var rows []hasRow
	n := ID(sn.NumTerms())
	for s := ID(0); s < n && len(rows) < 60; s++ {
		for _, e := range sn.rd.outSpan(s) {
			if int(e.To)%k == int(s)%k {
				continue
			}
			rows = append(rows, hasRow{s, e.Pred, e.To, true})
			for _, p := range sn.predIDs {
				if !sn.Has(s, p, e.To) {
					rows = append(rows, hasRow{s, p, e.To, false})
					break
				}
			}
			for o := ID(0); o < n; o++ {
				if int(o)%k != int(s)%k && !sn.Has(s, e.Pred, o) {
					rows = append(rows, hasRow{s, e.Pred, o, false})
					break
				}
			}
			break
		}
	}
	if len(rows) < 3 {
		t.Fatalf("k %d: no cross-part edge to probe", k)
	}
	return rows
}

// snapshotShape is one deployment shape of the snapshot differential: k
// parts, in process or behind loopback shard servers, over seeds random
// graphs.
type snapshotShape struct {
	name   string
	k      int
	remote bool
	seeds  int64
}

// neverFrozen fails the test when ref, a differential's reference, has a
// snapshot: a frozen graph reads its snapshot, so comparing a Snapshot
// with it would test nothing. A reference is a twin that is never frozen.
func neverFrozen(t testing.TB, ref *Graph) {
	t.Helper()
	if ref.snap.Load() != nil || len(ref.out) != ref.NumTerms() {
		t.Fatal("the reference graph has been frozen: it reads its snapshot, not its own lists")
	}
}

// twinGraphs builds randomRichGraph twice from seed: the graph a test
// freezes and its never-frozen twin — same triples, same order.
func twinGraphs(seed int64) (g, twin *Graph) {
	return randomRichGraph(rand.New(rand.NewSource(seed))), randomRichGraph(rand.New(rand.NewSource(seed)))
}

// checkShapes is the snapshot differential over deployment shapes. Each
// shape's snapshot of a random graph (on even seeds, one that has seen
// Remove) is checked twice: against a never-frozen twin of the graph read
// naively (adjacency scans, the triple set, per-vertex classification),
// and against the one-part snapshot of the same graph in exact order —
// every read returns what K = 1 returns, in the same order, not merely the
// same set.
func checkShapes(t *testing.T, shapes []snapshotShape) {
	t.Helper()
	for _, shape := range shapes {
		for seed := int64(0); seed < shape.seeds; seed++ {
			tag := fmt.Sprintf("%s seed %d", shape.name, seed)
			g, twin := twinGraphs(seed)
			r := rand.New(rand.NewSource(seed))
			randomRichGraph(r) // r continues where the graphs' draws end
			if seed%2 == 0 {
				for _, spo := range collectVia(g.Match, Any, Any, Any) {
					if r.Intn(4) == 0 {
						g.Remove(spo.S, spo.P, spo.O)
						twin.Remove(spo.S, spo.P, spo.O)
					}
				}
			}
			ref := g.Freeze()
			if ref.NumShards() != 1 {
				t.Fatalf("%s: unsharded Freeze has %d parts, want 1", tag, ref.NumShards())
			}
			var sn *Snapshot
			if shape.remote {
				addrs, _ := startLoopbackShards(t, g, shape.k)
				var err error
				if sn, err = DialShards(addrs, g.Terms(), RemoteOptions{}); err != nil {
					t.Fatalf("%s: DialShards: %v", tag, err)
				}
			} else {
				g.SetShards(shape.k)
				sn = g.Freeze()
				if g.FrozenView() != View(sn) {
					t.Fatalf("%s: FrozenView is %T, not the frozen snapshot", tag, g.FrozenView())
				}
			}
			if sn.NumShards() != shape.k {
				t.Fatalf("%s: %d shards, want %d", tag, sn.NumShards(), shape.k)
			}
			checkSnapshot(t, tag, twin, ref, sn, r)
			sn.Close()
		}
	}
}

// TestFrozenEquivalence is the differential at one part: the frozen
// snapshot against a never-frozen twin of the graph it was frozen from.
func TestFrozenEquivalence(t *testing.T) {
	checkShapes(t, []snapshotShape{{"k1", 1, false, 24}})
}

// TestShardCountEquivalence is the differential over in-process parts,
// including k larger than the vertex count of some parts.
func TestShardCountEquivalence(t *testing.T) {
	checkShapes(t, []snapshotShape{
		{"k2", 2, false, 24}, {"k3", 3, false, 24}, {"k4", 4, false, 24}, {"k8", 8, false, 24},
	})
}

// TestRemoteShardSetEquivalence is the differential one process boundary
// later: parts behind loopback shard servers. It runs fewer seeds: every
// read is a frame.
func TestRemoteShardSetEquivalence(t *testing.T) {
	checkShapes(t, []snapshotShape{{"remote-k2", 2, true, 3}, {"remote-k4", 4, true, 4}})
}

// checkSnapshot is one row of checkShapes: sizes, stats, Entities, TypeID
// and Generation; per vertex the out and in spans and the degrees; per
// vertex and IRI OutPred, InPred, their degrees and HasAdjacentPred; Match
// under every binding pattern (bound to each vertex, predicate and present
// triple, and to random IDs), and its first streamed triple; Has on every
// present triple, on random probes, on an out-of-range object and on the
// cross-part table. g is the graph's never-frozen twin.
func checkSnapshot(t *testing.T, tag string, g *Graph, ref, sn *Snapshot, r *rand.Rand) {
	t.Helper()
	neverFrozen(t, g)
	n := ID(g.NumTerms())
	if sn.NumTerms() != int(n) || sn.nTriples != g.NumTriples() || len(sn.predIDs) != g.NumPredicates() {
		t.Fatalf("%s: snapshot sizes %d/%d/%d, builder %d/%d/%d", tag,
			sn.NumTerms(), sn.nTriples, len(sn.predIDs), n, g.NumTriples(), g.NumPredicates())
	}
	if got, want := sn.stats, g.Stats(); got != want {
		t.Fatalf("%s: Stats = %+v, builder %+v", tag, got, want)
	}
	if got, want := sn.Entities(), g.Entities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Entities = %v, builder %v", tag, got, want)
	}
	if sn.TypeID() != ref.TypeID() || sn.Generation() != ref.Generation() {
		t.Fatalf("%s: TypeID/Generation %d/%d, k1 %d/%d", tag, sn.TypeID(), sn.Generation(), ref.TypeID(), ref.Generation())
	}

	// match checks one pattern's scan against K = 1's in order and against
	// the builder's as a set.
	match := func(s, p, o ID) {
		t.Helper()
		got := collectExact(sn.Match, s, p, o)
		if want := collectExact(ref.Match, s, p, o); !sposEqual(got, want) {
			t.Fatalf("%s: Match(%d,%d,%d) = %v, k1 %v", tag, s, p, o, got, want)
		}
		if want := collectVia(g.Match, s, p, o); !reflect.DeepEqual(sortedSpos(slices.Clone(got)), want) {
			t.Fatalf("%s: Match(%d,%d,%d) = %v, builder %v", tag, s, p, o, got, want)
		}
	}

	var iris []ID
	for v := ID(0); v < n; v++ {
		if g.Term(v).IsIRI() {
			iris = append(iris, v)
		}
	}
	for v := ID(0); v < n; v++ {
		if !edgesEqual(sn.rd.outSpan(v), ref.rd.outSpan(v)) || !edgesEqual(sn.rd.inSpan(v), ref.rd.inSpan(v)) {
			t.Fatalf("%s: out/in span of %d diverge from k1", tag, v)
		}
		if sn.OutDegree(v) != len(g.Out(v)) || sn.InDegree(v) != len(g.In(v)) || sn.Degree(v) != g.Degree(v) {
			t.Fatalf("%s: degrees of %d diverge", tag, v)
		}
		match(v, Any, Any)
		match(Any, Any, v)
		for _, p := range iris {
			wantOut, wantIn := naivePred(g.Out(v), p), naivePred(g.In(v), p)
			if got, want := sn.HasAdjacentPred(v, p), len(wantOut)+len(wantIn) > 0; got != want {
				t.Fatalf("%s: HasAdjacentPred(%d,%d) = %v, builder %v", tag, v, p, got, want)
			}
			if sn.OutPredDegree(v, p) != len(wantOut) || sn.InPredDegree(v, p) != len(wantIn) {
				t.Fatalf("%s: OutPredDegree/InPredDegree(%d,%d) = %d/%d, builder %d/%d", tag, v, p,
					sn.OutPredDegree(v, p), sn.InPredDegree(v, p), len(wantOut), len(wantIn))
			}
			out, in := sn.OutPred(v, p), sn.InPred(v, p)
			if got := edgeTargets(out); !reflect.DeepEqual(got, wantOut) {
				t.Fatalf("%s: OutPred(%d,%d) = %v, builder %v", tag, v, p, got, wantOut)
			}
			if got := edgeTargets(in); !reflect.DeepEqual(got, wantIn) {
				t.Fatalf("%s: InPred(%d,%d) = %v, builder %v", tag, v, p, got, wantIn)
			}
			if !edgesEqual(out, ref.OutPred(v, p)) || !edgesEqual(in, ref.InPred(v, p)) {
				t.Fatalf("%s: OutPred/InPred(%d,%d) diverge from k1", tag, v, p)
			}
			if g.PredCount(p) > 0 {
				match(v, p, Any)
				match(Any, p, v)
			}
		}
	}
	for _, p := range iris {
		match(Any, p, Any)
	}
	match(Any, Any, Any)
	for i := 0; i < 30; i++ {
		s, p, o := ID(r.Intn(int(n))), ID(r.Intn(int(n))), ID(r.Intn(int(n)))
		for _, pat := range [][3]ID{{s, p, o}, {s, p, Any}, {s, Any, o}, {s, Any, Any}, {Any, p, o}, {Any, p, Any}, {Any, Any, o}} {
			match(pat[0], pat[1], pat[2])
		}
	}
	// Early stop: the first streamed triple is K = 1's.
	var first, want []Spo
	sn.Match(Any, Any, Any, func(t Spo) bool { first = append(first, t); return false })
	ref.Match(Any, Any, Any, func(t Spo) bool { want = append(want, t); return false })
	if !sposEqual(first, want) {
		t.Fatalf("%s: first streamed triple %v, k1 %v", tag, first, want)
	}

	all := collectVia(g.Match, Any, Any, Any)
	for _, spo := range all {
		if !sn.Has(spo.S, spo.P, spo.O) {
			t.Fatalf("%s: Has misses present triple %v", tag, spo)
		}
		match(spo.S, spo.P, spo.O)
		match(spo.S, Any, spo.O)
	}
	for i := 0; i < 200; i++ {
		s, p, o := ID(r.Intn(int(n))), ID(r.Intn(int(n))), ID(r.Intn(int(n)))
		if got, want := sn.Has(s, p, o), g.Has(s, p, o); got != want || got != ref.Has(s, p, o) {
			t.Fatalf("%s: Has(%d,%d,%d) = %v, builder %v", tag, s, p, o, got, want)
		}
	}
	if len(all) > 0 && sn.Has(all[0].S, all[0].P, None) {
		t.Fatalf("%s: Has of an out-of-range object", tag)
	}
	// s and o in different parts: the probe is answered from s's part.
	if k := sn.NumShards(); k > 1 {
		for _, row := range crossPartHasRows(t, ref, k) {
			if got := sn.Has(row.s, row.p, row.o); got != row.want {
				t.Fatalf("%s: cross-part Has(%d,%d,%d) = %v, want %v", tag, row.s, row.p, row.o, got, row.want)
			}
		}
	}
}

// TestFrozenAdjacencySorted pins the CSR layout contract: every vertex
// span is sorted by (Pred, To), so binary searches are valid.
func TestFrozenAdjacencySorted(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(7)))
	sn := g.Freeze()
	for v := ID(0); int(v) < sn.NumTerms(); v++ {
		for _, span := range [][]Edge{sn.rd.outSpan(v), sn.rd.inSpan(v)} {
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
				sn.Degree(v)
				sn.InPred(v, p)
				sn.Has(v, p, v)
				sn.Match(v, Any, Any, func(Spo) bool { return true })
				_ = sn.Entities()
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
	if sn := g.Frozen(); sn.bytes <= 0 {
		t.Fatal("snapshot must report a positive byte size")
	}
}

// TestSnapshotBytesIsResidentSize: gqa_store_snapshot_bytes is the
// graph's resident size, the parts' arrays and the term table's exact
// bytes, after a freeze and after a load of the saved file.
func TestSnapshotBytesIsResidentSize(t *testing.T) {
	g := New()
	if err := g.AddAll([]rdf.Triple{
		rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLangLiteral("o", "en")),
		rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewTypedLiteral("42", rdf.XSDInteger)),
		rdf.T(rdf.NewIRI("s"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLangLiteral("o", "en")),
	}); err != nil {
		t.Fatal(err)
	}
	sn := g.Freeze()
	// Five terms: the arena holds "<s>", "<p>", "o", "42" and rdfs:label
	// between brackets; six offsets, five tags, an index of 8 slots, the
	// extras "en" and xsd:integer, and a label column of five IDs.
	terms := int64(3 + 3 + 1 + 2 + len(rdf.RDFSLabel) + 2 + 4*6 + 4*5 + 4*8 + 2 + len(rdf.XSDInteger) + 4*5)
	want := sn.parts[0].arrayBytes() + terms
	if sn.bytes != want || snapshotBytes.Value() != want {
		t.Fatalf("a freeze reports %d bytes (gauge %d), want %d", sn.bytes, snapshotBytes.Value(), want)
	}
	var buf bytes.Buffer
	if err := SaveFrozen(&buf, g); err != nil {
		t.Fatal(err)
	}
	snapshotBytes.Set(0)
	lg, err := LoadFrozen(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := lg.Frozen().bytes; got != want || snapshotBytes.Value() != want {
		t.Fatalf("a load reports %d bytes (gauge %d), want %d", got, snapshotBytes.Value(), want)
	}
}

// TestFreezeShardedReturnsSnapshot is the regression for the sharded
// freeze: Freeze and FreezeCtx on a SetShards(4) graph return the K=4
// snapshot FrozenView serves — they used to return nil there, so
// reading `g.Freeze()` dereferenced nil once a graph was sharded.
func TestFreezeShardedReturnsSnapshot(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(3)))
	g.SetShards(4)
	sn := g.Freeze()
	if sn == nil || sn.NumShards() != 4 || sn.bytes <= 0 {
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
