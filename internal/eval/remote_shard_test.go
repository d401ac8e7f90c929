package eval

import (
	"bytes"
	"fmt"
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

// TestRemoteShardKilledMidWorkload kills one of four shard servers — each
// of the four in turn — under the workload. Every later question must come
// back promptly, and either says Degraded = "shard-unavailable" or is the
// healthy answer to the byte (its search never needed the dead shard):
// degraded, never hung, and never a wrong answer passed off as a whole one.
// The pruning pass is the hard case: a dead shard reads as "no adjacent
// predicate", the candidates go, and a search left with nothing to search
// must still say that it did not look.
func TestRemoteShardKilledMidWorkload(t *testing.T) {
	qs := bench.Workload()
	healthy := inProcess(1)(t, qaldKB)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = observe(t, healthy, q.Text).fingerprint
	}
	for dead := 0; dead < 4; dead++ {
		t.Run(fmt.Sprintf("shard-%d", dead), func(t *testing.T) {
			addrs, servers := startRemoteShards(t, qaldKB, 4)
			sys := buildRemoteSystem(t, qaldKB, addrs, store.RemoteOptions{
				CallTimeout:  200 * time.Millisecond,
				Retries:      1,
				RetryBackoff: time.Millisecond,
				DownCooldown: time.Hour, // once down, stays down for the test
			})
			for i, q := range qs[:2] {
				if got := observe(t, sys, q.Text).fingerprint; got != want[i] {
					t.Fatalf("healthy %q:\n got: %s\nwant: %s", q.Text, got, want[i])
				}
			}

			servers[dead].Close()

			sawDegraded := false
			for i, q := range qs {
				start := time.Now()
				got := observe(t, sys, q.Text)
				// Generous bound: the first question after the kill pays the
				// retries before the breaker opens; everything later fails fast.
				if elapsed := time.Since(start); elapsed > 10*time.Second {
					t.Fatalf("post-kill %q took %s — hung on a dead shard", q.Text, elapsed)
				}
				switch got.stats.Truncated {
				case "shard-unavailable":
					sawDegraded = true
				case "":
					if got.fingerprint != want[i] {
						t.Errorf("post-kill %q is not degraded and not the healthy answer:\n got: %s\nwant: %s",
							q.Text, got.fingerprint, want[i])
					}
				default:
					t.Fatalf("post-kill %q: Degraded = %q, want \"\" or \"shard-unavailable\"", q.Text, got.stats.Truncated)
				}
			}
			if !sawDegraded {
				t.Fatal("no question degraded with shard-unavailable after killing a shard")
			}
		})
	}
}
