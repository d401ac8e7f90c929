package store_test

import (
	"testing"

	"gqa/internal/bench"
	"gqa/internal/store"
)

// TestPredGroupsOnWorkloadKBs holds every predicate scan of the workload
// KBs — qald's mini-DBpedia, yago, the small nl-scale people KB and the
// cinema KB — to the reference scatter at K ∈ {1, 2, 4, 8}: Match(Any, p,
// Any) for every predicate and Match(Any, Any, Any); then again after
// writes that follow a freeze, and through a coordinator over loopback
// shards at K = 4.
func TestPredGroupsOnWorkloadKBs(t *testing.T) {
	for _, kb := range []struct {
		name  string
		build func() (*store.Graph, error)
	}{
		{"qald", bench.BuildKB},
		{"yago", bench.BuildYagoKB},
		{"nlscale", func() (*store.Graph, error) {
			kb, err := bench.NewNLScaleKB(100, 9, 3)
			if err != nil {
				return nil, err
			}
			return kb.Graph, nil
		}},
		{"cinema", func() (*store.Graph, error) { return bench.NewCinemaKB().Graph, nil }},
	} {
		t.Run(kb.name, func(t *testing.T) {
			g, err := kb.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 8} {
				g.SetShards(k)
				if err := store.CheckLocalScans(g.Freeze()); err != nil {
					t.Fatal(err)
				}
			}

			// Writes after a freeze: every 13th triple goes, and as many new
			// ones join subjects, predicates and objects of different triples.
			var spos []store.Spo
			g.Freeze().Match(store.Any, store.Any, store.Any, func(spo store.Spo) bool {
				spos = append(spos, spo)
				return true
			})
			for i := 0; i < len(spos); i += 13 {
				g.Remove(spos[i].S, spos[i].P, spos[i].O)
			}
			for i := 1; i+1 < len(spos); i += 13 {
				g.AddSPO(spos[i+1].S, spos[i].P, spos[i-1].O)
			}
			for _, k := range []int{8, 4, 2, 1} {
				g.SetShards(k)
				if err := store.CheckLocalScans(g.Freeze()); err != nil {
					t.Fatalf("after writes: %v", err)
				}
			}
			store.CheckRemoteScans(t, g, 4)
		})
	}
}
