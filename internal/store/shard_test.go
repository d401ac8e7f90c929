package store

import (
	"fmt"
	"testing"

	"gqa/internal/obs"
	"gqa/internal/rdf"
)

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
