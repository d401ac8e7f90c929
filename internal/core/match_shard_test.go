package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// runSharded freezes g at k shards (k = 1 reverts to the monolithic
// snapshot) and runs the matcher with a non-truncating budget.
func runSharded(g *store.Graph, q *QueryGraph, k int) ([]Match, MatchStats) {
	g.SetShards(k)
	g.Freeze()
	return runAll(g, q)
}

// TestShardedIdenticalToMonolithic is the store-layout differential
// harness: across random graphs and queries, the search over K = 2, 8 parts
// must return byte-identical matches to the monolithic frozen baseline AND
// byte-identical MatchStats — the search tree is one whatever the layout.
func TestShardedIdenticalToMonolithic(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		want, wantStats := runSharded(g, q, 1)
		for _, k := range []int{2, 8} {
			got, gotStats := runSharded(g, q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: K=%d matches differ\n got %v\nwant %v", seed, k, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("seed %d: K=%d stats differ:\n got %+v\nwant %+v", seed, k, gotStats, wantStats)
			}
		}
	}
}

// TestShardMetamorphicInvariance composes the two metamorphic axes:
// shuffling triple-insertion order (which permutes every adjacency list)
// and varying the shard count must both leave the top-k signature fixed.
func TestShardMetamorphicInvariance(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, q := randomQuerySetup(r)
		base, _ := runSharded(g, q, 1)
		want := resultSignature(base, identityMap(g))

		order := make([]store.ID, g.NumTerms())
		for i := range order {
			order[i] = store.ID(i)
		}
		ts := sortedTriples(g)
		r.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		g2, q2, _ := rebuildRemapped(g, q, order, ts)
		for _, k := range []int{2, 3, 8} {
			got, _ := runSharded(g2, q2, k)
			if sig := resultSignature(got, identityMap(g2)); !reflect.DeepEqual(sig, want) {
				t.Fatalf("seed %d: shuffle+K=%d changed results\n got %v\nwant %v", seed, k, sig, want)
			}
		}
	}
}

// TestShardConcurrentAddDuringMatch pins MatchOptions.View to a sharded
// snapshot and mutates a different shard of the live graph while the search runs.
// Under -race this proves the pinned-view search touches zero mutable
// graph state; the results must equal a quiescent run over the same view.
func TestShardConcurrentAddDuringMatch(t *testing.T) {
	const k = 4
	g, q := benchSetup(80, 10)
	// Pre-intern the churn vertices so the mutator never touches the term
	// table — AddSPO on existing IDs only grows adjacency.
	p := g.Intern(rdf.Ontology("churn"))
	churn := make([]store.ID, 64)
	for i := range churn {
		churn[i] = g.Intern(rdf.Resource(fmt.Sprintf("churn%d", i)))
	}
	g.SetShards(k)
	view := g.FrozenView()
	if sn, ok := view.(*store.Snapshot); !ok || sn.NumShards() != k {
		t.Fatalf("FrozenView is %T, want a %d-shard *store.Snapshot", view, k)
	}
	opts := MatchOptions{TopK: 10, MaxMatches: 1 << 20, View: view}
	want, wantStats := FindTopKMatches(g, q, opts)
	if len(want) == 0 {
		t.Fatal("workload produced no matches")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i = (i + 1) % (len(churn) - 1) {
			select {
			case <-stop:
				return
			default:
			}
			g.AddSPO(churn[i], p, churn[i+1])
			g.Freeze() // re-freeze concurrently too: only dirty shards rebuild
		}
	}()
	for i := 0; i < 20; i++ {
		got, gotStats := FindTopKMatches(g, q, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: concurrent mutation changed pinned-view matches", i)
		}
		if gotStats != wantStats {
			t.Fatalf("iter %d: concurrent mutation changed pinned-view stats:\n got %+v\nwant %+v", i, gotStats, wantStats)
		}
	}
	close(stop)
	wg.Wait()
}
