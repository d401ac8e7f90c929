package eval

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/store"
)

// startRemoteShards builds the benchmark KB, shards it K ways, exports
// every part through the shard-part file format, and serves each from an
// in-process loopback ShardServer — the exact topology of K gqa-shard
// processes, minus the process boundary. Returns the shard addresses in
// shard order and the live servers.
func startRemoteShards(t *testing.T, k int) ([]string, []*store.ShardServer) {
	t.Helper()
	g, err := bench.BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.SetShards(k); got != k {
		t.Fatalf("SetShards(%d) = %d", k, got)
	}
	g.Freeze()
	addrs := make([]string, k)
	servers := make([]*store.ShardServer, k)
	for i := 0; i < k; i++ {
		var buf bytes.Buffer
		if err := store.SaveShardPart(&buf, g, i); err != nil {
			t.Fatalf("SaveShardPart(%d): %v", i, err)
		}
		part, err := store.LoadShardPart(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadShardPart(%d): %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := store.NewShardServer(part)
		go srv.Serve(ln) //nolint:errcheck
		addrs[i] = ln.Addr().String()
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	return addrs, servers
}

// buildRemoteSystem is the coordinator: the full local graph (dictionary,
// linker, and term table are local) with every frozen read routed to the
// remote shard servers.
func buildRemoteSystem(t *testing.T, addrs []string, ropts store.RemoteOptions) *core.System {
	t.Helper()
	g, err := bench.BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	sys := core.NewSystem(g, d, core.Options{TopK: 10})
	rss, err := store.DialShards(addrs, g.Terms(), ropts)
	if err != nil {
		t.Fatalf("DialShards: %v", err)
	}
	t.Cleanup(rss.Close)
	if rss.Generation() != g.Generation() {
		t.Fatalf("remote generation %d, local %d", rss.Generation(), g.Generation())
	}
	g.SetRemoteView(rss)
	return sys
}

// TestWorkloadRemoteShardDifferential is the multi-process identity gate:
// a coordinator answering over 4 loopback shard servers must produce
// byte-identical answers, byte-identical rendered Explain lines, and
// byte-identical MatchStats to the K=1 monolithic in-process baseline,
// over the whole benchmark workload, at P=1 and P=8. The RPC boundary
// may add latency, retries, and telemetry — never a different answer.
func TestWorkloadRemoteShardDifferential(t *testing.T) {
	addrs, _ := startRemoteShards(t, 4)

	g, err := bench.BuildKB()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	mono := core.NewSystem(g, d, core.Options{TopK: 10})

	remote := buildRemoteSystem(t, addrs, store.RemoteOptions{})
	if sn, ok := remote.Graph.FrozenView().(*store.Snapshot); !ok || sn == remote.Graph.Frozen() {
		t.Fatalf("remote system's view is %T, want the dialed *store.Snapshot, not the local freeze", remote.Graph.FrozenView())
	}

	qs := bench.Workload()
	for _, p := range []int{1, 8} {
		mono.Opts.Parallelism = p
		remote.Opts.Parallelism = p
		for _, q := range qs {
			mres, err := mono.Answer(q.Text)
			if err != nil {
				t.Fatalf("P=%d mono %q: %v", p, q.Text, err)
			}
			rres, err := remote.Answer(q.Text)
			if err != nil {
				t.Fatalf("P=%d remote %q: %v", p, q.Text, err)
			}
			if rres.Degraded != "" {
				t.Fatalf("P=%d %q degraded over healthy shards: %q", p, q.Text, rres.Degraded)
			}
			if got, want := answerFingerprint(rres), answerFingerprint(mres); got != want {
				t.Errorf("P=%d %q remote diverged from monolithic:\n got: %s\nwant: %s",
					p, q.Text, got, want)
			}
			for i := range mres.Matches {
				if i >= len(rres.Matches) {
					break
				}
				mr := core.RenderMatch(mono.Graph, mres.Query, &mres.Matches[i])
				rr := core.RenderMatch(remote.Graph, rres.Query, &rres.Matches[i])
				if mr != rr {
					t.Errorf("P=%d %q match %d explain diverged:\n got: %s\nwant: %s",
						p, q.Text, i, rr, mr)
				}
			}
			if !reflect.DeepEqual(rres.Stats, mres.Stats) {
				t.Errorf("P=%d %q search stats diverged:\n got: %+v\nwant: %+v",
					p, q.Text, rres.Stats, mres.Stats)
			}
		}
	}
}

// TestRemoteShardKilledMidWorkload kills one of four shard servers in
// the middle of the workload: every later question must come back
// promptly with Degraded = "shard-unavailable" (or a clean answer, when
// its search never touched the dead shard) — degraded, never hung.
func TestRemoteShardKilledMidWorkload(t *testing.T) {
	addrs, servers := startRemoteShards(t, 4)
	sys := buildRemoteSystem(t, addrs, store.RemoteOptions{
		CallTimeout:  200 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		DownCooldown: time.Hour, // once down, stays down for the test
	})

	qs := bench.Workload()
	if len(qs) < 4 {
		t.Fatalf("workload too small: %d questions", len(qs))
	}
	// Healthy warm-up over the first questions.
	for _, q := range qs[:2] {
		res, err := sys.Answer(q.Text)
		if err != nil {
			t.Fatalf("healthy %q: %v", q.Text, err)
		}
		if res.Degraded != "" {
			t.Fatalf("healthy %q degraded: %q", q.Text, res.Degraded)
		}
	}

	servers[2].Close()

	sawDegraded := false
	for _, q := range qs[2:] {
		start := time.Now()
		res, err := sys.Answer(q.Text)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("post-kill %q: %v", q.Text, err)
		}
		// Generous bound: the first question after the kill pays the
		// retries before the breaker opens; everything later fails fast.
		if elapsed > 10*time.Second {
			t.Fatalf("post-kill %q took %s — hung on a dead shard", q.Text, elapsed)
		}
		switch res.Degraded {
		case "":
			// This search never touched shard 2 — a clean answer is fine.
		case "shard-unavailable":
			sawDegraded = true
		default:
			t.Fatalf("post-kill %q: Degraded = %q, want \"\" or \"shard-unavailable\"", q.Text, res.Degraded)
		}
	}
	if !sawDegraded {
		t.Fatal("no question degraded with shard-unavailable after killing a shard")
	}
}
