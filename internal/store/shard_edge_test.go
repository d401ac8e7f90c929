package store

import (
	"testing"

	"gqa/internal/rdf"
)

// TestSetShardsValidation pins the shard-count edge cases: negative
// counts are monolithic (not a silent pass-through into modulo
// arithmetic), and counts above the vertex count clamp down so no
// permanently empty residue class joins every k-way merge.
func TestSetShardsValidation(t *testing.T) {
	small := func() *Graph {
		g := New()
		if err := g.Add(rdf.Triple{
			Subject:   rdf.Resource("a"),
			Predicate: rdf.Ontology("p"),
			Object:    rdf.Resource("b"),
		}); err != nil {
			t.Fatal(err)
		}
		return g
	}

	t.Run("negative is monolithic", func(t *testing.T) {
		g := small()
		if got := g.SetShards(-5); got != 0 {
			t.Fatalf("SetShards(-5) = %d, want 0", got)
		}
		if g.NumShards() != 0 {
			t.Fatalf("NumShards = %d after SetShards(-5), want 0", g.NumShards())
		}
		if k := g.Freeze().NumShards(); k != 1 {
			t.Fatalf("freeze after SetShards(-5) has %d parts, want 1", k)
		}
	})

	t.Run("clamped to vertex count", func(t *testing.T) {
		g := small() // 3 terms
		if got := g.SetShards(64); got != 3 {
			t.Fatalf("SetShards(64) on a 3-term graph = %d, want 3", got)
		}
		ss := g.Freeze()
		if ss.NumShards() != 3 {
			t.Fatalf("frozen shard count = %d, want 3", ss.NumShards())
		}
		for i, part := range ss.parts {
			if len(part.roles) == 0 {
				t.Errorf("shard %d is an empty part after clamping", i)
			}
		}
	})

	t.Run("two vertices cannot take three shards", func(t *testing.T) {
		g := New()
		g.Intern(rdf.Resource("http://x/a"))
		g.Intern(rdf.Resource("http://x/b"))
		if got := g.SetShards(3); got != 2 {
			t.Fatalf("SetShards(3) on a 2-term graph = %d, want 2", got)
		}
	})
}

// TestZeroVertexGraphSharding pins the degenerate graph: with no terms at
// all, any requested shard count collapses to the monolithic path, and
// freeze and Match behave like an ordinary empty graph instead of building
// K empty parts.
func TestZeroVertexGraphSharding(t *testing.T) {
	g := New()
	if got := g.SetShards(8); got != 0 {
		t.Fatalf("SetShards(8) on an empty graph = %d, want 0 (monolithic)", got)
	}
	if g.NumShards() != 0 {
		t.Fatalf("NumShards = %d on an empty graph, want 0", g.NumShards())
	}
	sn := g.Freeze()
	if sn.NumShards() != 1 {
		t.Fatalf("empty graph froze into %d parts, want 1", sn.NumShards())
	}
	if sn.NumTerms() != 0 || sn.NumTriples() != 0 {
		t.Fatalf("empty snapshot has %d terms / %d triples", sn.NumTerms(), sn.NumTriples())
	}
	calls := 0
	sn.Match(Any, Any, Any, func(Spo) bool { calls++; return true })
	if calls != 0 {
		t.Fatalf("Match on the empty snapshot visited %d triples", calls)
	}
	if st := g.Stats(); st != (Stats{}) {
		t.Fatalf("empty graph stats = %+v, want zero", st)
	}
}
