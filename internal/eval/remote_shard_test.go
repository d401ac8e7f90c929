package eval

import (
	"bytes"
	"net"
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/store"
)

// startRemoteShards builds the workload's KB, shards it K ways, exports
// every part through the shard-part file format, and serves each from an
// in-process loopback ShardServer — the exact topology of K gqa-shard
// processes, minus the process boundary. Returns the shard addresses in
// shard order and the live servers.
func startRemoteShards(t *testing.T, kb workloadKB, k int) ([]string, []*store.ShardServer) {
	t.Helper()
	g, _ := kb.mustBuild(t)
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
func buildRemoteSystem(t *testing.T, kb workloadKB, addrs []string, ropts store.RemoteOptions) *core.System {
	t.Helper()
	g, d := kb.mustBuild(t)
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

// TestRemoteShardKilledMidWorkload kills one of four shard servers in
// the middle of the workload: every later question must come back
// promptly with Degraded = "shard-unavailable" (or a clean answer, when
// its search never touched the dead shard) — degraded, never hung.
func TestRemoteShardKilledMidWorkload(t *testing.T) {
	addrs, servers := startRemoteShards(t, qaldKB, 4)
	sys := buildRemoteSystem(t, qaldKB, addrs, store.RemoteOptions{
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
