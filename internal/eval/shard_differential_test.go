package eval

import (
	"reflect"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/store"
)

// TestWorkloadShardDifferential pins the sharding contract end to end:
// partitioning the frozen store into 8 vertex-hash shards is a pure
// layout change. Over the whole benchmark workload the sharded system
// must produce byte-identical answers, byte-identical rendered Explain
// lines, and byte-identical MatchStats to the K=1 monolithic baseline —
// the scatter-gather rounds may regroup seeds by shard, but the search
// tree, the thresholds, and the harvested matches must coincide exactly.
// Checked at P=1 and P=8 (run under -race in tier 1).
func TestWorkloadShardDifferential(t *testing.T) {
	build := func(shards int) *core.System {
		g, err := bench.BuildKB()
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := bench.BuildDictionary(g)
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			g.SetShards(shards)
		}
		g.Freeze()
		return core.NewSystem(g, d, core.Options{TopK: 10})
	}
	mono, sharded := build(1), build(8)
	if mono.Graph.Frozen() == nil {
		t.Fatal("baseline system has no monolithic snapshot")
	}
	if sn, ok := sharded.Graph.FrozenView().(*store.Snapshot); !ok || sn.NumShards() != 8 {
		t.Fatalf("sharded system's view is %T, want an 8-shard *store.Snapshot", sharded.Graph.FrozenView())
	}

	qs := bench.Workload()
	for _, p := range []int{1, 8} {
		mono.Opts.Parallelism = p
		sharded.Opts.Parallelism = p
		for _, q := range qs {
			mres, err := mono.Answer(q.Text)
			if err != nil {
				t.Fatalf("P=%d mono %q: %v", p, q.Text, err)
			}
			sres, err := sharded.Answer(q.Text)
			if err != nil {
				t.Fatalf("P=%d sharded %q: %v", p, q.Text, err)
			}
			if got, want := answerFingerprint(sres), answerFingerprint(mres); got != want {
				t.Errorf("P=%d %q K=8 diverged from K=1:\n got: %s\nwant: %s",
					p, q.Text, got, want)
			}
			// Rendered explain lines, match by match.
			for i := range mres.Matches {
				if i >= len(sres.Matches) {
					break
				}
				mr := core.RenderMatch(mono.Graph, mres.Query, &mres.Matches[i])
				sr := core.RenderMatch(sharded.Graph, sres.Query, &sres.Matches[i])
				if mr != sr {
					t.Errorf("P=%d %q match %d explain diverged:\n got: %s\nwant: %s",
						p, q.Text, i, sr, mr)
				}
			}
			if !reflect.DeepEqual(sres.Stats, mres.Stats) {
				t.Errorf("P=%d %q search stats diverged:\n got: %+v\nwant: %+v",
					p, q.Text, sres.Stats, mres.Stats)
			}
		}
	}
}
