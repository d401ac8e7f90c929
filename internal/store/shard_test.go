package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gqa/internal/obs"
	"gqa/internal/rdf"
)

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
		for _, e := range sn.Out(s) {
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

// TestShardCountEquivalence pins the order-identity contract: every read
// of a K-part snapshot returns exactly what the one-part snapshot of the
// same graph returns, in the same order, across random graphs and shard
// counts (including k > number of vertices in some shards).
func TestShardCountEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, k := range []int{2, 3, 4, 8} {
			r := rand.New(rand.NewSource(seed))
			g := randomRichGraph(r)
			sn := g.Freeze()
			if sn.NumShards() != 1 {
				t.Fatalf("seed %d: unsharded Freeze has %d parts, want 1", seed, sn.NumShards())
			}

			g.SetShards(k)
			ss := g.Freeze()
			if ss.NumShards() != k || g.FrozenView() != View(ss) {
				t.Fatalf("seed %d k %d: sharded Freeze has %d parts (FrozenView %T)", seed, k, ss.NumShards(), g.FrozenView())
			}

			if ss.NumTerms() != sn.NumTerms() || ss.NumTriples() != sn.NumTriples() {
				t.Fatalf("seed %d k %d: sizes diverge", seed, k)
			}
			if ss.NumPredicates() != sn.NumPredicates() {
				t.Fatalf("seed %d k %d: NumPredicates %d, want %d", seed, k, ss.NumPredicates(), sn.NumPredicates())
			}
			if !reflect.DeepEqual(ss.Stats(), sn.Stats()) {
				t.Fatalf("seed %d k %d: Stats %+v, want %+v", seed, k, ss.Stats(), sn.Stats())
			}
			if !reflect.DeepEqual(ss.Entities(), sn.Entities()) {
				t.Fatalf("seed %d k %d: Entities diverge", seed, k)
			}
			if ss.TypeID() != sn.TypeID() {
				t.Fatalf("seed %d k %d: TypeID diverges", seed, k)
			}

			n := ID(g.NumTerms())
			preds := make([]ID, 0, 8)
			for v := ID(0); v < n; v++ {
				if g.Term(v).IsIRI() {
					preds = append(preds, v)
				}
			}
			for v := ID(0); v < n; v++ {
				if !reflect.DeepEqual(ss.Out(v), sn.Out(v)) {
					t.Fatalf("seed %d k %d: Out(%d) diverges", seed, k, v)
				}
				if !reflect.DeepEqual(ss.In(v), sn.In(v)) {
					t.Fatalf("seed %d k %d: In(%d) diverges", seed, k, v)
				}
				if ss.Degree(v) != sn.Degree(v) {
					t.Fatalf("seed %d k %d: Degree(%d) diverges", seed, k, v)
				}
				if ss.IsEntity(v) != sn.IsEntity(v) || ss.IsClass(v) != sn.IsClass(v) {
					t.Fatalf("seed %d k %d: roles diverge at %d", seed, k, v)
				}
				for _, p := range preds {
					if !reflect.DeepEqual(ss.OutPred(v, p), sn.OutPred(v, p)) {
						t.Fatalf("seed %d k %d: OutPred(%d,%d) diverges", seed, k, v, p)
					}
					if !reflect.DeepEqual(ss.InPred(v, p), sn.InPred(v, p)) {
						t.Fatalf("seed %d k %d: InPred(%d,%d) diverges", seed, k, v, p)
					}
					if ss.HasAdjacentPred(v, p) != sn.HasAdjacentPred(v, p) {
						t.Fatalf("seed %d k %d: HasAdjacentPred(%d,%d) diverges", seed, k, v, p)
					}
					if ss.PredCount(p) != sn.PredCount(p) {
						t.Fatalf("seed %d k %d: PredCount(%d) diverges", seed, k, p)
					}
				}
			}

			// Has across random triples, intra- and cross-part, then the
			// cross-part table: present, wrong predicate, absent object.
			for i := 0; i < 400; i++ {
				s, p, o := ID(r.Intn(int(n))), ID(r.Intn(int(n))), ID(r.Intn(int(n)))
				if ss.Has(s, p, o) != sn.Has(s, p, o) {
					t.Fatalf("seed %d k %d: Has(%d,%d,%d) = %v, want %v",
						seed, k, s, p, o, ss.Has(s, p, o), sn.Has(s, p, o))
				}
			}
			for _, row := range crossPartHasRows(t, sn, k) {
				if got := ss.Has(row.s, row.p, row.o); got != row.want {
					t.Fatalf("seed %d k %d: cross-part Has(%d,%d,%d) = %v, want %v", seed, k, row.s, row.p, row.o, got, row.want)
				}
			}
			for v := ID(0); v < n; v++ {
				for _, e := range sn.Out(v) {
					if !ss.Has(v, e.Pred, e.To) {
						t.Fatalf("seed %d k %d: present triple (%d,%d,%d) missing", seed, k, v, e.Pred, e.To)
					}
				}
			}

			// Match under every binding shape, exact iteration order.
			patterns := [][3]ID{
				{Any, Any, Any},
			}
			for i := 0; i < 30; i++ {
				s, p, o := ID(r.Intn(int(n))), ID(r.Intn(int(n))), ID(r.Intn(int(n)))
				patterns = append(patterns,
					[3]ID{s, p, o}, [3]ID{s, p, Any}, [3]ID{s, Any, o}, [3]ID{s, Any, Any},
					[3]ID{Any, p, o}, [3]ID{Any, p, Any}, [3]ID{Any, Any, o})
			}
			for _, pat := range patterns {
				got := collectExact(ss.Match, pat[0], pat[1], pat[2])
				want := collectExact(sn.Match, pat[0], pat[1], pat[2])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k %d: Match(%v) order/content diverges:\n got %v\nwant %v",
						seed, k, pat, got, want)
				}
			}

			// Early-stop parity: stopping after one triple must not panic
			// and must surface the same first triple.
			var first, firstSn []Spo
			ss.Match(Any, Any, Any, func(t Spo) bool { first = append(first, t); return false })
			sn.Match(Any, Any, Any, func(t Spo) bool { firstSn = append(firstSn, t); return false })
			if !reflect.DeepEqual(first, firstSn) {
				t.Fatalf("seed %d k %d: first streamed triple diverges", seed, k)
			}
		}
	}
}

// TestShardDeltaOverlay pins the incremental re-freeze: after one
// intra-shard Add, exactly the dirtied shard rebuilds and every clean
// shard's part pointer is reused verbatim.
func TestShardDeltaOverlay(t *testing.T) {
	const k = 4
	g := New()
	p := g.Intern(rdf.Ontology("p"))
	verts := make([]ID, 40)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i+1 < len(verts); i++ {
		g.AddSPO(verts[i], p, verts[i+1])
	}
	g.SetShards(k)
	ss1 := g.Freeze()

	// Clean re-freeze: the whole snapshot is the same pointer.
	if g.Freeze() != ss1 || g.FrozenView() != View(ss1) {
		t.Fatal("clean Freeze rebuilt the snapshot")
	}

	// Pick an intra-shard pair not already connected.
	var s, o ID
	found := false
	for i := 0; i < len(verts) && !found; i++ {
		for j := 0; j < len(verts); j++ {
			if i == j || int(verts[i])%k != int(verts[j])%k || g.Has(verts[i], p, verts[j]) {
				continue
			}
			s, o, found = verts[i], verts[j], true
			break
		}
	}
	if !found {
		t.Fatal("no intra-shard pair available")
	}
	before := obs.DefaultCounter("gqa_store_shard_freezes_total", "").Value()
	g.AddSPO(s, p, o)
	ss2 := g.Freeze()
	if rebuilt := obs.DefaultCounter("gqa_store_shard_freezes_total", "").Value() - before; rebuilt != 1 {
		t.Fatalf("re-freeze rebuilt %d shards, want 1", rebuilt)
	}
	dirty := int(s) % k
	for i := 0; i < k; i++ {
		if i == dirty {
			if ss2.parts[i] == ss1.parts[i] {
				t.Fatalf("dirty shard %d was not rebuilt", i)
			}
			continue
		}
		if ss2.parts[i] != ss1.parts[i] {
			t.Fatalf("clean shard %d was rebuilt", i)
		}
	}
	if !ss2.Has(s, p, o) {
		t.Fatal("new triple missing from re-frozen set")
	}
	// The handed-out pre-mutation set still answers pre-mutation reads.
	if ss1.Has(s, p, o) {
		t.Fatal("pre-mutation snapshot sees the new triple")
	}

	// A cross-shard Add dirties both endpoint shards.
	var cs, co ID
	found = false
	for i := 0; i < len(verts) && !found; i++ {
		for j := 0; j < len(verts); j++ {
			if int(verts[i])%k == int(verts[j])%k || g.Has(verts[i], p, verts[j]) {
				continue
			}
			cs, co, found = verts[i], verts[j], true
			break
		}
	}
	if !found {
		t.Fatal("no cross-shard pair available")
	}
	before = obs.DefaultCounter("gqa_store_shard_freezes_total", "").Value()
	g.AddSPO(cs, p, co)
	g.Freeze()
	if rebuilt := obs.DefaultCounter("gqa_store_shard_freezes_total", "").Value() - before; rebuilt != 2 {
		t.Fatalf("cross-shard re-freeze rebuilt %d shards, want 2", rebuilt)
	}
}
