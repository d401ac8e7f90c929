package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gqa/internal/budget"
	"gqa/internal/faultpoint"
	"gqa/internal/rdf"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// exportShardParts saves every shard part of the (sharded, frozen) graph
// through the file format and loads it back — the exact bytes a
// gqa-shard process would serve from.
func exportShardParts(t *testing.T, g *Graph, k int) []*ShardPart {
	t.Helper()
	parts := make([]*ShardPart, k)
	for i := 0; i < k; i++ {
		sp, err := LoadShardPart(bytes.NewReader(savePartBytes(t, g, k, i)))
		if err != nil {
			t.Fatalf("LoadShardPart(%d): %v", i, err)
		}
		parts[i] = sp
	}
	return parts
}

// startLoopbackShards shards g into k parts, round-trips each through the
// file format, and serves each from an in-process ShardServer on a
// loopback TCP listener. Returns the addresses in shard order plus the
// live servers (for kill-a-shard tests); cleanup stops everything.
func startLoopbackShards(t *testing.T, g *Graph, k int) ([]string, []*ShardServer) {
	t.Helper()
	g.SetShards(k)
	g.Freeze()
	parts := exportShardParts(t, g, k)
	addrs := make([]string, k)
	servers := make([]*ShardServer, k)
	for i := 0; i < k; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardServer(parts[i])
		go srv.Serve(ln) //nolint:errcheck
		addrs[i] = ln.Addr().String()
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	return addrs, servers
}

// startFrameShards is startLoopbackShards with the test between the
// framing and the handler: every request frame of every shard goes to
// answer together with the shard's real server, and what answer returns is
// sent back (ok=false severs the connection unanswered). It is how a test
// breaks one kind of frame — a batch — and leaves the others alone, which
// the process-wide rpc.call faultpoint cannot.
func startFrameShards(t *testing.T, g *Graph, k int, answer func(srv *ShardServer, req []byte) (resp []byte, ok bool)) []string {
	t.Helper()
	g.SetShards(k)
	g.Freeze()
	addrs := make([]string, k)
	for i, part := range exportShardParts(t, g, k) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		srv := NewShardServer(part)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				// Ends when the client closes its pooled connection.
				go func() {
					defer conn.Close()
					for {
						req, err := readFrame(conn, maxShardReqFrame)
						if err != nil {
							return
						}
						resp, ok := answer(srv, req)
						if !ok || writeFrame(conn, resp) != nil {
							return
						}
					}
				}()
			}
		}()
	}
	return addrs
}

// TestShardPartRoundtrip pins the part files: every part of a sharded
// freeze survives save/load exactly (same arrays and roles),
// and the format is canonical — Save(Load(b)) is b — at every K.
func TestShardPartRoundtrip(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := randomRichGraph(rand.New(rand.NewSource(7)))
		g.SetShards(k)
		ss := g.Freeze()
		for i := 0; i < k; i++ {
			raw := savePartBytes(t, g, k, i)
			loaded, err := LoadShardPart(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("LoadShardPart(%d/%d): %v", i, k, err)
			}
			if want := ss.Part(i); !reflect.DeepEqual(want, loaded) {
				t.Fatalf("part %d/%d diverges after roundtrip:\nwant %+v\ngot  %+v", i, k, want.part, loaded.part)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again.Bytes()) {
				t.Fatalf("part %d/%d: re-serialized file is not byte-identical", i, k)
			}
		}
	}
}

// edgesEqual and sposEqual live in frzsnap_test.go / query_test.go.

// rpcOf returns the shard-RPC reader behind a dialed (or bound) snapshot.
func rpcOf(sn *Snapshot) *rpcReader { return sn.rd.(*rpcReader) }

// TestRemoteFailureModes is the failure-mode table: each injected fault —
// a straggling server past the call timeout, a refused dial, a mid-stream
// connection cut, a server-side panic — must end in bounded, budget-
// flagged degradation with the documented retry behaviour, never a hang.
func TestRemoteFailureModes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomRichGraph(r)
	addrs, _ := startLoopbackShards(t, g, 2)
	opts := RemoteOptions{
		DialTimeout:  200 * time.Millisecond,
		CallTimeout:  80 * time.Millisecond,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		DownCooldown: 50 * time.Millisecond,
	}
	// A vertex with outgoing edges, for a read that must touch the wire.
	sn := g.Freeze()
	var probe Spo
	sn.Match(Any, Any, Any, func(s Spo) bool { probe = s; return false })

	cases := []struct {
		name      string
		point     string
		fault     faultpoint.Fault
		wantCalls int64 // attempts for the single probed read
		wantRetry int64
	}{
		{"server delay past call timeout", faultpoint.RPCCall,
			faultpoint.Fault{Delay: 300 * time.Millisecond}, 3, 2},
		{"dial refused", faultpoint.RPCDial,
			faultpoint.Fault{Err: errors.New("connection refused")}, 3, 2},
		{"mid-stream connection cut", faultpoint.RPCCall,
			faultpoint.Fault{Err: errShardCut}, 3, 2},
		{"server panic", faultpoint.RPCCall,
			faultpoint.Fault{PanicMsg: "boom"}, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rss, err := DialShards(addrs, g.Terms(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rss.Close()
			if tc.point == faultpoint.RPCDial {
				// Drain pooled connections so the read must dial.
				for _, p := range rpcOf(rss).pools {
					p.closeAll()
				}
			}
			faultpoint.Set(tc.point, tc.fault)
			defer faultpoint.Reset()

			ctx, cancel := contextWithTimeout(2 * time.Second)
			defer cancel()
			tr := budget.New(ctx, budget.Limits{})
			bv := rss.BindRequest(tr, nil)

			start := time.Now()
			span := bv.OutPred(probe.S, probe.P)
			elapsed := time.Since(start)

			if len(span) != 0 {
				t.Fatalf("degraded read returned %d edges, want 0", len(span))
			}
			if got := tr.Exhausted(); got != budget.ReasonShard {
				t.Fatalf("budget reason = %q, want %q", got, budget.ReasonShard)
			}
			st := rpcOf(bv).req
			if st.calls.Load() != tc.wantCalls {
				t.Fatalf("calls = %d, want %d", st.calls.Load(), tc.wantCalls)
			}
			if st.retries.Load() != tc.wantRetry {
				t.Fatalf("retries = %d, want %d", st.retries.Load(), tc.wantRetry)
			}
			if st.errs.Load() == 0 {
				t.Fatal("no error recorded on the request state")
			}
			// Bounded: three 80 ms attempts plus backoff, not a hang.
			if elapsed > 1500*time.Millisecond {
				t.Fatalf("degradation took %s — unbounded retry?", elapsed)
			}
			// The shard is marked down: the next read fails fast.
			if !rpcOf(rss).pools[int(probe.S)%2].isDown() && tc.wantRetry > 0 {
				t.Fatal("shard not marked down after exhausted retries")
			}
			faultpoint.Reset()
		})
	}

	t.Run("budget deadline bounds attempts", func(t *testing.T) {
		rss, err := DialShards(addrs, g.Terms(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rss.Close()
		faultpoint.Set(faultpoint.RPCCall, faultpoint.Fault{Delay: 300 * time.Millisecond})
		defer faultpoint.Reset()
		// The request deadline expires inside the first attempt: no retry
		// may start after it, and the reason stays "deadline" (first trip
		// wins).
		ctx, cancel := contextWithTimeout(40 * time.Millisecond)
		defer cancel()
		tr := budget.New(ctx, budget.Limits{})
		bv := rss.BindRequest(tr, nil)
		start := time.Now()
		bv.OutPred(probe.S, probe.P)
		if e := time.Since(start); e > 500*time.Millisecond {
			t.Fatalf("deadline-bounded call took %s", e)
		}
		st := rpcOf(bv).req
		if st.calls.Load() != 1 {
			t.Fatalf("calls = %d, want 1 (deadline must stop retries)", st.calls.Load())
		}
		if got := tr.Exhausted(); got != budget.ReasonDeadline {
			t.Fatalf("reason = %q, want %q", got, budget.ReasonDeadline)
		}
	})

	t.Run("server error frame is not retried", func(t *testing.T) {
		rss, err := DialShards(addrs, g.Terms(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rss.Close()
		faultpoint.Set(faultpoint.RPCCall, faultpoint.Fault{Err: errors.New("synthetic server failure")})
		defer faultpoint.Reset()
		_, err = rpcOf(rss).call(0, []byte{shrOpPing})
		if err == nil || !strings.Contains(err.Error(), "synthetic server failure") {
			t.Fatalf("err = %v, want the server-reported error", err)
		}
		var srv *errServer
		if !errors.As(err, &srv) {
			t.Fatalf("err %T is not a server error", err)
		}
	})

	// A batch frame fails like any frame — same deadline, retries and
	// breaker — but on its own it fails silently: nothing degrades until a
	// read needs what the batch would have brought. Only batch frames are
	// broken here; single reads reach the real handler.
	type frameFunc = func(srv *ShardServer, req []byte) ([]byte, bool)
	var breakBatch atomic.Pointer[frameFunc] // a delayed server goroutine outlives its row
	faddrs := startFrameShards(t, g, 2, func(srv *ShardServer, req []byte) ([]byte, bool) {
		if req[0] == shrOpBatch {
			return (*breakBatch.Load())(srv, req)
		}
		return srv.handle(req)
	})
	hints := []Read{ReadPred(probe.S, probe.P, true), ReadHas(probe.S, probe.P, probe.O)}
	want := sn.OutPred(probe.S, probe.P)
	batchCases := []struct {
		name       string
		batch      frameFunc
		wantCalls  int64 // frames for the prefetch and the two reads after it
		wantRetry  int64
		wantHits   int64
		wantFailed bool // the reads after the prefetch degrade
	}{
		// The shard exhausts the batch's retries and is marked down, so the
		// reads that follow fail fast: three frames in all.
		{"batch cut mid-stream", func(*ShardServer, []byte) ([]byte, bool) { return nil, false }, 3, 2, 0, true},
		{"batch delayed past call timeout", func(srv *ShardServer, req []byte) ([]byte, bool) {
			time.Sleep(300 * time.Millisecond)
			return srv.handle(req)
		}, 3, 2, 0, true},
		// What a server from before the batch opcode answers. An error frame
		// is deterministic: one attempt, then the reads go one by one.
		{"batch refused by an old server", func(*ShardServer, []byte) ([]byte, bool) {
			return shardErrResp("unknown op 14"), true
		}, 3, 0, 0, false},
		{"batch reply one sub-reply short", func(srv *ShardServer, req []byte) ([]byte, bool) {
			resp, ok := srv.handle(req)
			n := binary.LittleEndian.Uint32(resp[1:])
			return resp[:1+4+n], ok // the first sub-reply only
		}, 3, 0, 0, false},
		{"batch sub-reply of a wrong length", func(srv *ShardServer, req []byte) ([]byte, bool) {
			resp, ok := srv.handle(req)
			binary.LittleEndian.PutUint32(resp[len(resp)-6:], 1) // has answers 2 bytes: now 1, and 1 stray
			return resp, ok
		}, 3, 0, 0, false},
		{"batch answered", func(srv *ShardServer, req []byte) ([]byte, bool) { return srv.handle(req) }, 1, 0, 2, false},
	}
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			rss, err := DialShards(faddrs, g.Terms(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rss.Close()
			breakBatch.Store(&tc.batch)
			ctx, cancel := contextWithTimeout(2 * time.Second)
			defer cancel()
			tr := budget.New(ctx, budget.Limits{})
			bv := rss.BindRequest(tr, nil)
			st := rpcOf(bv).req

			start := time.Now()
			bv.Prefetch(hints)
			if reason, errs := tr.Exhausted(), st.errs.Load(); reason != "" || errs != 0 {
				t.Fatalf("the prefetch alone degraded the request: reason %q, %d errors", reason, errs)
			}
			span, has := bv.OutPred(probe.S, probe.P), bv.Has(probe.S, probe.P, probe.O)
			if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
				t.Fatalf("prefetch and reads took %s — unbounded retry?", elapsed)
			}

			if tc.wantFailed {
				if len(span) != 0 || has {
					t.Fatalf("reads behind a failed shard answered %d edges, has=%v", len(span), has)
				}
				if got := tr.Exhausted(); got != budget.ReasonShard {
					t.Fatalf("budget reason = %q, want %q", got, budget.ReasonShard)
				}
			} else {
				if !edgesEqual(span, want) || !has {
					t.Fatalf("reads after the prefetch answered %v, has=%v; want %v, true", span, has, want)
				}
				if reason, errs := tr.Exhausted(), st.errs.Load(); reason != "" || errs != 0 {
					t.Fatalf("request degraded: reason %q, %d errors", reason, errs)
				}
			}
			if st.calls.Load() != tc.wantCalls || st.retries.Load() != tc.wantRetry {
				t.Fatalf("calls = %d, retries = %d; want %d, %d", st.calls.Load(), st.retries.Load(), tc.wantCalls, tc.wantRetry)
			}
			if st.readHits.Load() != tc.wantHits || st.reads.Load() != 2 || st.batchReads.Load() != 2 {
				t.Fatalf("reads = %d, hits = %d, batched = %d; want 2, %d, 2",
					st.reads.Load(), st.readHits.Load(), st.batchReads.Load(), tc.wantHits)
			}
		})
	}
}

// TestShardServerBatch pins the batch envelope at the server: a well-formed
// batch is answered read by read with what each read is answered alone
// (a read that is wrong in itself gets its own error reply), and a frame
// that is not a list of at most maxBatchReads per-vertex reads is refused
// whole.
func TestShardServerBatch(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(3)))
	g.SetShards(2)
	srv := NewShardServer(g.Freeze().Part(0))
	v := ID(0)

	subs := [][]byte{
		ReadPred(v, 1, true).appendTo(nil), Read{op: shrOpDegrees, v: v}.appendTo(nil),
		{shrOpOut, 1, 2},                        // bad argument count: that read's own error
		Read{op: shrOpRole, v: 1}.appendTo(nil), // a vertex another shard owns: empty, not an error
	}
	resp := srv.answer(batchReq(subs...))
	if resp[0] != shrStatusOK {
		t.Fatalf("valid batch refused: %s", resp[1:])
	}
	checkBatchReply(t, srv, batchReq(subs...)[1:], resp[1:])

	refused := []struct {
		name string
		req  []byte
		want string
	}{
		{"nested batch", batchReq(subs[0], batchReq(subs[1])), "not a per-vertex read"},
		{"predicate-major scan", batchReq(Read{op: shrOpPredGrp, v: 1}.appendTo(nil)), "not a per-vertex read"},
		{"empty read", append(batchReq(subs[0]), 0), "is empty"},
		{"read past the frame", append(batchReq(subs[0]), 9, shrOpIn, 0), "past the frame"},
		{"one read too many", batchReq(repeatReq(subs[0], maxBatchReads+1)...), "more than 256 reads"},
	}
	for _, tc := range refused {
		resp := srv.answer(tc.req)
		if resp[0] != shrStatusErr || !strings.Contains(string(resp[1:]), tc.want) {
			t.Errorf("%s: answered %q, want an error naming %q", tc.name, resp, tc.want)
		}
	}
	if full := batchReq(repeatReq(ReadHas(v, v, v).appendTo(nil), maxBatchReads)...); len(full) != maxShardReqFrame {
		t.Errorf("a full batch of the longest read is %d bytes, the request cap is %d", len(full), maxShardReqFrame)
	} else if resp := srv.answer(full); resp[0] != shrStatusOK {
		t.Errorf("a full batch was refused: %s", resp[1:])
	}

	// The armed rpc.call faultpoint fires once per frame, however many
	// reads the frame carries.
	faultpoint.Set(faultpoint.RPCCall, faultpoint.Fault{Delay: time.Microsecond})
	defer faultpoint.Reset()
	if _, ok := srv.handle(batchReq(subs...)); !ok || faultpoint.Hits(faultpoint.RPCCall) != 1 {
		t.Errorf("a batch of %d reads hit the rpc.call faultpoint %d times, want 1", len(subs), faultpoint.Hits(faultpoint.RPCCall))
	}
	// A panic inside one sub-read is that frame's error reply, not a dead
	// server: a part whose out-CSR lost its offsets faults on any out read.
	broken := *srv.part.part
	broken.outOff = nil
	srv.rd[0] = &broken
	resp, ok := srv.handle(batchReq(subs[1], subs[0]))
	if !ok || resp[0] != shrStatusErr || !strings.Contains(string(resp[1:]), "shard server panic") {
		t.Errorf("a panicking sub-read answered %q, ok=%v; want the frame's error reply", resp, ok)
	}
}

// TestBatchReplyCap: past maxBatchReply bytes of reply the server stops
// reading and marks the rest of the batch unanswered, and the client keeps
// what was answered and reads the rest one at a time — same answers, and a
// frame that cannot grow without bound.
func TestBatchReplyCap(t *testing.T) {
	// Eight hubs of 20 000 in-edges each: 160 KB a span, so the seventh
	// reply crosses the 1 MiB cap.
	const hubs, fan = 8, 20000
	g := New()
	p := g.Intern(rdf.Ontology("p"))
	hub := make([]ID, hubs)
	for i := range hub {
		hub[i] = g.Intern(rdf.Resource(fmt.Sprintf("hub%d", i)))
	}
	for i := 0; i < fan; i++ {
		s := g.Intern(rdf.Resource(fmt.Sprintf("s%d", i)))
		for _, h := range hub {
			g.AddSPO(s, p, h)
		}
	}
	local := g.Freeze()
	var batches atomic.Int64
	addrs := startFrameShards(t, g, 2, func(srv *ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.handle(req)
		if req[0] == shrOpBatch {
			batches.Add(1)
			if len(resp) > maxBatchReply+8*fan+64 {
				t.Errorf("batch reply of %d bytes, cap %d plus one span", len(resp), maxBatchReply)
			}
		}
		return resp, ok
	})
	rss, err := DialShards(addrs, g.Terms(), RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rss.Close()
	bv := rss.BindRequest(nil, nil)
	var reads []Read
	for _, h := range hub {
		if int(h)%2 == 1 { // all on one shard, so one frame: eight spans
			reads = append(reads, ReadPred(h, p, false), Read{op: shrOpIn, v: h})
		}
	}
	bv.Prefetch(reads)
	for _, h := range hub {
		if !edgesEqual(bv.InPred(h, p), local.InPred(h, p)) || !edgesEqual(bv.In(h), local.In(h)) {
			t.Fatalf("in-spans of hub %d diverge after a capped batch", h)
		}
	}
	st := rpcOf(bv).req
	if batches.Load() != 1 || st.readHits.Load() == 0 || st.readHits.Load() >= int64(len(reads)) {
		t.Fatalf("%d batch frames, %d of %d prefetched reads served from the set; want 1 frame and some but not all",
			batches.Load(), st.readHits.Load(), len(reads))
	}
	if st.errs.Load() != 0 {
		t.Fatalf("%d reads failed", st.errs.Load())
	}
}

// TestRemoteShardKilledDegrades kills one live shard server outright and
// requires reads over the remaining topology to degrade promptly.
func TestRemoteShardKilledDegrades(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomRichGraph(r)
	addrs, servers := startLoopbackShards(t, g, 2)
	rss, err := DialShards(addrs, g.Terms(), RemoteOptions{
		CallTimeout:  100 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		DownCooldown: time.Hour, // stay down for the rest of the test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rss.Close()

	servers[1].Close()

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	tr := budget.New(ctx, budget.Limits{})
	bv := rss.BindRequest(tr, nil)

	// A full scan gathers from both shards: shard 0 serves, shard 1 fails.
	start := time.Now()
	count := 0
	bv.Match(Any, Any, Any, func(Spo) bool { count++; return true })
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("scan over a killed shard took %s", e)
	}
	if got := tr.Exhausted(); got != budget.ReasonShard {
		t.Fatalf("reason = %q, want %q", got, budget.ReasonShard)
	}
	// After the breaker opens, further reads to the dead shard are instant.
	start = time.Now()
	bv.Match(Any, Any, Any, func(Spo) bool { return true })
	if e := time.Since(start); e > time.Second {
		t.Fatalf("post-breaker scan took %s", e)
	}
}

// TestOutOfRangeVerticesReadEmpty: a vertex the snapshot does not know —
// None, or the first ID past the term table — answers empty on every View
// read, in every deployment shape, instead of faulting.
func TestOutOfRangeVerticesReadEmpty(t *testing.T) {
	shapes := []struct {
		name string
		view func(t *testing.T, g *Graph) View
	}{
		{"k1", func(t *testing.T, g *Graph) View { return g.FrozenView() }},
		{"k4", func(t *testing.T, g *Graph) View { g.SetShards(4); return g.FrozenView() }},
		{"remote-k4", func(t *testing.T, g *Graph) View {
			addrs, _ := startLoopbackShards(t, g, 4)
			sn, err := DialShards(addrs, g.Terms(), RemoteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sn.Close)
			return sn
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			g := randomRichGraph(rand.New(rand.NewSource(21)))
			view := shape.view(t, g)
			var known Spo
			view.Match(Any, Any, Any, func(s Spo) bool { known = s; return false })
			for _, v := range []ID{None, ID(view.NumTerms())} {
				if view.Has(v, known.P, known.O) || view.Has(known.S, known.P, v) || view.HasAdjacentPred(v, known.P) {
					t.Errorf("vertex %d: membership probe answered true", v)
				}
				if n := len(view.OutPred(v, known.P)) + len(view.InPred(v, known.P)); n != 0 {
					t.Errorf("vertex %d: %d edges in per-predicate spans", v, n)
				}
				if n := view.OutPredDegree(v, known.P) + view.InPredDegree(v, known.P) +
					view.OutDegree(v) + view.InDegree(v) + view.Degree(v); n != 0 {
					t.Errorf("vertex %d: degrees sum to %d", v, n)
				}
				if view.IsEntity(v) || view.IsClass(v) {
					t.Errorf("vertex %d: has a role", v)
				}
				if v == None {
					continue // None in a Match position is the wildcard
				}
				for _, pat := range [][3]ID{{v, Any, Any}, {v, known.P, Any}, {Any, Any, v}, {Any, known.P, v}, {v, known.P, known.O}, {Any, v, Any}} {
					if got := collectExact(view.Match, pat[0], pat[1], pat[2]); len(got) != 0 {
						t.Errorf("Match%v yielded %v", pat, got)
					}
				}
			}
		})
	}
}
