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
	hints := []Read{ReadPred(probe.S, probe.P, true), ReadOut(probe.S)} // OutPred's read, and Has's
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
			n := binary.LittleEndian.Uint32(resp[1:])
			binary.LittleEndian.PutUint32(resp[1:], n-1) // the first span one byte short, and 1 stray
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

	// A reply that is not a whole number of records is a failed call, not
	// one whose tail is dropped: at dial time DialShards fails with the
	// shard, the opcode and the byte length; a predicate-group reply fails
	// the read and degrades the request. Shard 1 adds one stray byte to
	// every reply of one opcode.
	var raggedOp atomic.Int32
	raddrs := startFrameShards(t, g, 2, func(srv *ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.handle(req)
		if srv.part.Shard() == 1 && int32(req[0]) == raggedOp.Load() {
			resp = append(resp, 0xff)
		}
		return resp, ok
	})
	for _, tc := range []struct {
		name string
		op   byte
		rec  int
	}{{"ragged entity list", shrOpEntities, 4}, {"ragged predicate list", shrOpPredIDs, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			raggedOp.Store(int32(tc.op))
			defer raggedOp.Store(0)
			_, err := DialShards(raddrs, g.Terms(), opts)
			want := fmt.Sprintf("shard 1, opcode %d: reply of ", tc.op)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte records", tc.rec)) {
				t.Fatalf("DialShards over a ragged reply: err = %v, want one naming %q", err, want)
			}
		})
	}
	// DialShards refuses a shard set it cannot serve, and its error names
	// the shard (a set of one, its size): shard 1 answers its meta or one of
	// its dial-time lists doctored, or the addresses or the coordinator's
	// term table are what is wrong. A list must be what a part's list is:
	// terms, strictly ascending, and an entity list only of entities the
	// shard owns (ID mod K).
	type doctorFunc = func(op byte, resp []byte) []byte
	var doctor atomic.Pointer[doctorFunc]
	daddrs := startFrameShards(t, g, 2, func(srv *ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.handle(req)
		if d := doctor.Load(); d != nil && srv.part.Shard() == 1 && resp[0] == shrStatusOK {
			resp = (*d)(req[0], resp)
		}
		return resp, ok
	})
	meta := func(edit func(m *shardMeta)) doctorFunc {
		return func(op byte, resp []byte) []byte {
			if op != shrOpMeta {
				return resp
			}
			m, err := decodeShardMeta(resp[1:])
			if err != nil {
				return resp // the dial then fails on what the row did not ask for
			}
			edit(&m)
			return append([]byte{shrStatusOK}, encodeShardMeta(&m)...)
		}
	}
	list := func(list byte, edit func(ids []ID) []ID) doctorFunc {
		return func(op byte, resp []byte) []byte {
			if op != list {
				return resp
			}
			return append([]byte{shrStatusOK}, encodeFrzU32s(edit(decodeFrzU32s[ID](resp[1:])))...)
		}
	}
	nTerms := ID(g.NumTerms())
	ents, preds := sn.Part(1).part.entities, sn.Part(1).part.predIDs
	if len(ents) == 0 || len(preds) == 0 {
		t.Fatalf("shard 1 has %d entities and %d predicates: the list rows need both", len(ents), len(preds))
	}
	for _, tc := range []struct {
		name   string
		addrs  []string   // nil: daddrs
		terms  []rdf.Term // nil: g.Terms()
		doctor doctorFunc
		want   string
	}{
		{"one address", daddrs[:1], nil, nil, "needs at least 2 shard addresses, have 1"},
		{"meta call fails", nil, nil, func(op byte, resp []byte) []byte {
			if op == shrOpMeta {
				return shardErrResp("no meta")
			}
			return resp
		}, "shard 1 (" + daddrs[1] + "): shard server: no meta"},
		{"meta does not decode", nil, nil, func(op byte, resp []byte) []byte {
			if op == shrOpMeta {
				return resp[:len(resp)-1]
			}
			return resp
		}, fmt.Sprintf("shard 1 (%s): shard meta is %d bytes", daddrs[1], shrMetaSize-1)},
		{"part of another K", nil, nil, meta(func(m *shardMeta) { m.k = 3 }), "shard server 1 is part of a 3-shard set, dialing 2"},
		{"addresses out of shard order", []string{daddrs[1], daddrs[0]}, nil, nil, "address 0 serves shard 1"},
		{"generation disagrees", nil, nil, meta(func(m *shardMeta) { m.gen++ }), "shard 1 disagrees with shard 0 on the frozen graph"},
		{"term count disagrees", nil, nil, meta(func(m *shardMeta) { m.nTerms++ }), "shard 1 disagrees with shard 0 on the frozen graph"},
		{"triple count disagrees", nil, nil, meta(func(m *shardMeta) { m.nTriples++ }), "shard 1 disagrees with shard 0 on the frozen graph"},
		{"stats disagree", nil, nil, meta(func(m *shardMeta) { m.stats.Classes++ }), "shard 1 disagrees with shard 0 on the frozen graph"},
		{"rdf:type disagrees", nil, nil, meta(func(m *shardMeta) { m.rdfType++ }), "shard 1 disagrees with shard 0 on the frozen graph"},
		{"term count unlike the coordinator's", nil, g.Terms()[:nTerms-1], nil,
			fmt.Sprintf("shard 0 froze %d terms, the coordinator holds %d", nTerms, nTerms-1)},
		{"entity out of range", nil, nil, list(shrOpEntities, func(ids []ID) []ID { return append(ids, nTerms|1) }),
			fmt.Sprintf("shard 1, opcode %d: entry %d (ID %d of", shrOpEntities, len(ents), nTerms|1)},
		{"entity list out of order", nil, nil, list(shrOpEntities, func(ids []ID) []ID { return append(ids, ids[len(ids)-1]) }),
			fmt.Sprintf("shard 1, opcode %d: entry %d (ID %d of", shrOpEntities, len(ents), ents[len(ents)-1])},
		{"entity of another shard", nil, nil, list(shrOpEntities, func(ids []ID) []ID { return append([]ID{0}, ids...) }),
			fmt.Sprintf("shard 1, opcode %d: entry 0 (ID 0 of", shrOpEntities)},
		{"predicate out of range", nil, nil, list(shrOpPredIDs, func(ids []ID) []ID { return append(ids, nTerms) }),
			fmt.Sprintf("shard 1, opcode %d: entry %d (ID %d of", shrOpPredIDs, len(preds), nTerms)},
		{"predicate list out of order", nil, nil, list(shrOpPredIDs, func(ids []ID) []ID { return append(ids, ids[0]) }),
			fmt.Sprintf("shard 1, opcode %d: entry %d (ID %d of", shrOpPredIDs, len(preds), preds[0])},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, terms := tc.addrs, tc.terms
			if addrs == nil {
				addrs = daddrs
			}
			if terms == nil {
				terms = g.Terms()
			}
			if tc.doctor != nil {
				doctor.Store(&tc.doctor)
				defer doctor.Store(nil)
			}
			rss, err := DialShards(addrs, terms, opts)
			if err == nil {
				rss.Close()
				t.Fatalf("DialShards accepted the set; want an error naming %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	t.Run("ragged predicate-group reply", func(t *testing.T) {
		rss, err := DialShards(raddrs, g.Terms(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rss.Close()
		raggedOp.Store(int32(shrOpPredGrp))
		defer raggedOp.Store(0)
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		tr := budget.New(ctx, budget.Limits{})
		bv := rss.BindRequest(tr, nil)
		var got []Spo
		bv.Match(Any, probe.P, Any, func(spo Spo) bool { got = append(got, spo); return true })
		for _, spo := range got {
			if int(spo.S)%2 == 1 {
				t.Fatalf("a triple %v of the ragged shard was read", spo)
			}
		}
		if reason, errs := tr.Exhausted(), rpcOf(bv).req.errs.Load(); reason != budget.ReasonShard || errs == 0 {
			t.Fatalf("budget reason = %q with %d errors, want %q", reason, errs, budget.ReasonShard)
		}
	})

	// A span reply must be what a file's span must be (checkSpan): every ID
	// a term, the entries strictly (Pred,To)-sorted; a per-predicate run
	// must also hold only the predicate asked for. Shard 1 answers every
	// span read, alone or in a batch, with a broken span: one with an ID
	// past the term count (which the first Term of that edge would index
	// with), one out of order (which spanHas's binary search would misread),
	// and one of another predicate (which an OutPred or InPred caller would
	// take for its own). The read fails as a call does — the request
	// degrades as shard-unavailable, with no retry and the shard left up —
	// and the call's error names the shard, the opcode, the vertex and the
	// entry. A batch carrying a broken sub-reply stores nothing, so the read
	// behind it goes to the wire and fails the same.
	var brokenSpan atomic.Pointer[[]byte]
	var brokenGroup atomic.Pointer[[]byte]
	saddrs := startFrameShards(t, g, 2, func(srv *ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.handle(req)
		if srv.part.Shard() != 1 || resp[0] != shrStatusOK {
			return resp, ok
		}
		bad, badGroup := brokenSpan.Load(), brokenGroup.Load()
		switch {
		case bad != nil && req[0] >= shrOpOut && req[0] <= shrOpInPred:
			return append([]byte{shrStatusOK}, *bad...), ok
		case bad != nil && req[0] == shrOpBatch:
			out := []byte{shrStatusOK}
			for rest := resp[1:]; len(rest) >= 4; rest = rest[4+binary.LittleEndian.Uint32(rest):] {
				out = binary.LittleEndian.AppendUint32(out, uint32(1+len(*bad)))
				out = append(append(out, shrStatusOK), *bad...)
			}
			return out, ok
		case badGroup != nil && req[0] == shrOpPredGrp:
			return append([]byte{shrStatusOK}, *badGroup...), ok
		}
		return resp, ok
	})
	var owned, ownedIn Spo // triples whose subject, and whose object, shard 1 owns
	sn.Match(Any, Any, Any, func(s Spo) bool { owned = s; return int(s.S)%2 == 0 })
	sn.Match(Any, Any, Any, func(s Spo) bool { ownedIn = s; return int(s.O)%2 == 0 })
	other := (owned.P + 1) % ID(g.NumTerms()) // a term, and not owned.P
	outRead, inRead := ReadPred(owned.S, owned.P, true), ReadPred(ownedIn.O, ownedIn.P, false)
	for _, tc := range []struct {
		name  string
		read  Read
		span  []Edge
		entry int
		why   string
	}{
		{"span reply out of range", outRead, []Edge{{Pred: 5, To: 0xFFFFFF00}, {Pred: 1, To: 3}}, 0, "out of range"},
		{"unsorted span reply", outRead, []Edge{{Pred: 1, To: 3}, {Pred: 1, To: 2}}, 1, "(Pred,To) order"},
		{"out-run reply of another predicate", outRead, []Edge{{Pred: owned.P, To: 0}, {Pred: max(owned.P, other) + 1, To: 0}}, 1,
			fmt.Sprintf("is not of predicate %d", owned.P)},
		{"in-run reply of another predicate", inRead, []Edge{{Pred: other, To: 0}}, 0,
			fmt.Sprintf("is not of predicate %d", ownedIn.P)},
	} {
		for _, batched := range []bool{false, true} {
			name := tc.name + ", single read"
			if batched {
				name = tc.name + ", batch"
			}
			t.Run(name, func(t *testing.T) {
				rss, err := DialShards(saddrs, g.Terms(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer rss.Close()
				bad := encodeFrzEdges(tc.span)
				brokenSpan.Store(&bad)
				defer brokenSpan.Store(nil)
				ctx, cancel := contextWithTimeout(2 * time.Second)
				defer cancel()
				tr := budget.New(ctx, budget.Limits{})
				bv := rss.BindRequest(tr, nil)
				st := rpcOf(bv).req
				wantCalls := int64(1)
				if batched {
					bv.Prefetch([]Read{tc.read})
					if reason, errs := tr.Exhausted(), st.errs.Load(); reason != "" || errs != 0 {
						t.Fatalf("the prefetch alone degraded the request: reason %q, %d errors", reason, errs)
					}
					wantCalls++
				}
				read := bv.InPred
				if tc.read.op == shrOpOutPred {
					read = bv.OutPred
				}
				span := read(tc.read.v, tc.read.p)
				if len(span) != 0 {
					t.Fatalf("a broken reply was read as %d edges", len(span))
				}
				if reason, errs := tr.Exhausted(), st.errs.Load(); reason != budget.ReasonShard || errs != 1 {
					t.Fatalf("budget reason = %q with %d errors, want %q with 1", reason, errs, budget.ReasonShard)
				}
				if calls, retries, hits := st.calls.Load(), st.retries.Load(), st.readHits.Load(); calls != wantCalls || retries != 0 || hits != 0 {
					t.Fatalf("calls = %d, retries = %d, hits = %d; want %d, 0, 0", calls, retries, hits, wantCalls)
				}
				if rpcOf(rss).pools[1].isDown() {
					t.Fatal("a broken reply marked the shard down")
				}
				_, err = rpcOf(rss.BindRequest(nil, nil)).fetch(tc.read) // this request's budget is spent
				want := fmt.Sprintf("shard 1, opcode %d, vertex %d: entry %d", tc.read.op, tc.read.v, tc.entry)
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.why) {
					t.Fatalf("err = %v, want one naming %q and %q", err, want, tc.why)
				}
			})
		}
	}

	// A predicate-group reply must be what the shard's group is: every ID
	// a term, every triple of the predicate asked for and of a subject the
	// shard owns (S mod K), strictly (S,O)-sorted, as the merge needs. Shard
	// 1 answers a group read with one broken group; the scan keeps shard 0's
	// group, the request degrades as shard-unavailable with no retry and the
	// shard left up, and the error names the shard, the opcode, the
	// predicate and the entry.
	p := owned.P
	var wantGroup []Spo // shard 0's group
	sn.Match(Any, p, Any, func(spo Spo) bool {
		if spo.S%2 == 0 {
			wantGroup = append(wantGroup, spo)
		}
		return true
	})
	for _, tc := range []struct {
		name  string
		group []Spo
		entry int
		why   string
	}{
		{"group reply with an object out of range", []Spo{{S: 1, P: p, O: 0xFFFFFF00}}, 0, "out of range"},
		{"group reply with a subject out of range", []Spo{{S: 1, P: p, O: 2}, {S: 0xFFFFFF01, P: p, O: 0}}, 1, "out of range"},
		{"group reply of another predicate", []Spo{{S: 1, P: p, O: 2}, {S: 3, P: other, O: 0}}, 1, "of another predicate"},
		{"group reply with a foreign subject", []Spo{{S: 1, P: p, O: 2}, {S: 2, P: p, O: 0}}, 1, "subject the shard does not own"},
		{"unsorted group reply", []Spo{{S: 1, P: p, O: 3}, {S: 1, P: p, O: 3}}, 1, "(S,O) order"},
		{"group reply out of subject order", []Spo{{S: 3, P: p, O: 0}, {S: 1, P: p, O: 3}}, 1, "(S,O) order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rss, err := DialShards(saddrs, g.Terms(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rss.Close()
			bad := encodeFrzSpos(tc.group)
			brokenGroup.Store(&bad)
			defer brokenGroup.Store(nil)
			ctx, cancel := contextWithTimeout(2 * time.Second)
			defer cancel()
			tr := budget.New(ctx, budget.Limits{})
			bv := rss.BindRequest(tr, nil)
			st := rpcOf(bv).req
			var got []Spo
			bv.Match(Any, p, Any, func(spo Spo) bool { got = append(got, spo); return true })
			if !reflect.DeepEqual(got, wantGroup) {
				t.Fatalf("the scan read %v, want shard 0's group %v", got, wantGroup)
			}
			if reason, errs := tr.Exhausted(), st.errs.Load(); reason != budget.ReasonShard || errs != 1 {
				t.Fatalf("budget reason = %q with %d errors, want %q with 1", reason, errs, budget.ReasonShard)
			}
			if calls, retries := st.calls.Load(), st.retries.Load(); calls != 2 || retries != 0 {
				t.Fatalf("calls = %d, retries = %d; want 2, 0", calls, retries)
			}
			if rpcOf(rss).pools[1].isDown() {
				t.Fatal("a broken reply marked the shard down")
			}
			_, err = rpcOf(rss.BindRequest(nil, nil)).fetchGroup(1, p)
			want := fmt.Sprintf("shard 1, opcode %d, predicate %d: entry %d", shrOpPredGrp, p, tc.entry)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("err = %v, want one naming %q and %q", err, want, tc.why)
			}
		})
	}
}

// TestRetiredReadsAreUnknown: the four scalar reads a coordinator no
// longer sends (ops 7–10) are not answered. A request for one gets an
// "unknown op" error frame, and the client takes that as the server's
// deterministic answer: one attempt, no retry, and the shard stays up.
func TestRetiredReadsAreUnknown(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(5)))
	addrs, _ := startLoopbackShards(t, g, 2)
	rss, err := DialShards(addrs, g.Terms(), RemoteOptions{Retries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rss.Close()
	for _, req := range retiredReads(4) {
		rr := rpcOf(rss.BindRequest(nil, nil))
		_, err := rr.call(0, req)
		var srv *errServer
		if !errors.As(err, &srv) || !strings.Contains(srv.msg, fmt.Sprintf("unknown op %d", req[0])) {
			t.Errorf("op %d: err = %v, want the server's unknown-op error frame", req[0], err)
		}
		if calls, retries := rr.req.calls.Load(), rr.req.retries.Load(); calls != 1 || retries != 0 {
			t.Errorf("op %d: %d attempts, %d retries; want 1, 0", req[0], calls, retries)
		}
		if rr.pools[0].isDown() {
			t.Errorf("op %d: an error frame marked the shard down", req[0])
		}
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
		ReadPred(v, 1, true).appendTo(nil), Read{op: shrOpIn, v: v}.appendTo(nil),
		{shrOpOut, 1, 2},         // bad argument count: that read's own error
		ReadOut(1).appendTo(nil), // a vertex another shard owns: empty, not an error
	}
	resp := srv.answer(batchReq(subs...))
	if resp[0] != shrStatusOK {
		t.Fatalf("valid batch refused: %s", resp[1:])
	}
	checkBatchReply(t, srv, batchReq(subs...)[1:], resp[1:])

	retired := retiredReads(v)
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
		{"retired degrees read", batchReq(subs[0], retired[0]), "op 7 is not a per-vertex read"},
		{"retired has-adjacent read", batchReq(subs[0], retired[1]), "op 8 is not a per-vertex read"},
		{"retired has read", batchReq(subs[0], retired[2]), "op 9 is not a per-vertex read"},
		{"retired role read", batchReq(subs[0], retired[3]), "op 10 is not a per-vertex read"},
	}
	for _, tc := range refused {
		resp := srv.answer(tc.req)
		if resp[0] != shrStatusErr || !strings.Contains(string(resp[1:]), tc.want) {
			t.Errorf("%s: answered %q, want an error naming %q", tc.name, resp, tc.want)
		}
	}
	if full := batchReq(repeatReq(ReadPred(v, v, false).appendTo(nil), maxBatchReads)...); len(full) != maxShardReqFrame {
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
		if !edgesEqual(bv.InPred(h, p), local.InPred(h, p)) || !edgesEqual(bv.rd.inSpan(h), local.rd.inSpan(h)) {
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
