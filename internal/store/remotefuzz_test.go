package store_test

import (
	"context"
	"encoding/binary"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gqa/internal/bench"
	"gqa/internal/budget"
	"gqa/internal/core"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// FuzzRemoteReply puts fuzzed bytes on the wire where shard 1 of a
// two-shard cinema fleet answers one kind of request, and holds the
// coordinator to the reply checks (remote.go). target picks the kind:
//   - fuzzSpan: every single span read (out, in, out-run, in-run); pick
//     chooses which of the four reads is checked;
//   - fuzzBatch: every batch frame; a prefetch of three reads is followed
//     by the reads;
//   - fuzzScan: every single span read, behind a predicate scan, which
//     reads one out run per term;
//   - fuzzList: the dial-time entity (even pick) or predicate list.
//
// The forged payload is the whole reply, status byte included. A read
// returns what a well-formed reply says, which is the true span when the
// payload is the server's own, or it returns nothing and degrades its
// request as shard-unavailable; a dial accepts a well-formed list or fails
// naming shard 1. Well-formed is judged here, apart from remote.go: whole
// records, every ID a term, strictly sorted, of the predicate asked for,
// an entity owned as the part owns it, and a list that merges with shard
// 0's to the length the stats give. A scan reads shard 0's subjects' runs
// and, for each of shard 1's terms, the forged run when it is well formed;
// a refused run degrades the scan's request and reads nothing. A reply
// with no status byte, the empty payload, is refused as an error status
// is: the read it answers fails, and the shard stays up for the reads
// after it. A well-formed reply that is not the part's is accepted: the
// coordinator has nothing to hold it to. Whatever the read
// did, a cinema question answered over the fleet must not panic.
func FuzzRemoteReply(f *testing.F) {
	kb := bench.NewCinemaKB()
	var forged atomic.Pointer[replyForgery]
	addrs := store.StartFrameShards(f, kb.Graph, 2, func(srv *store.ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.Handle(req)
		if fz := forged.Load(); fz != nil && srv.Shard() == 1 && fz.forges(req[0]) {
			return fz.payload, ok
		}
		return resp, ok
	})
	sys := core.NewSystem(kb.Graph, kb.Dict, core.Options{TopK: 10})
	fx := newReplyFixture(kb.Graph)
	for _, s := range fx.seeds() {
		f.Add(s.target, s.pick, s.payload)
	}
	opts := store.RemoteOptions{RetryBackoff: time.Millisecond, DownCooldown: time.Minute}

	f.Fuzz(func(t *testing.T, target, pick uint8, payload []byte) {
		target %= fuzzTargets
		fz := &replyForgery{target: target, payload: payload}
		if target == fuzzList {
			fz.op = [2]byte{store.OpEntities, store.OpPredIDs}[pick%2]
		}
		forged.Store(fz)
		defer forged.Store(nil)
		sn, err := store.DialShards(addrs, kb.Graph.Terms(), opts)
		if target == fuzzList {
			list, wellFormed := fx.list(fz.op, payload)
			if !wellFormed {
				if err == nil || !strings.Contains(err.Error(), "shard 1") {
					t.Fatalf("a dial over a broken list reply: err = %v, want one naming shard 1", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("a dial over a well-formed list reply failed: %v", err)
			}
			if fz.op == store.OpEntities {
				if want := mergeIDs(fx.entities0, list); !slices.Equal(sn.Entities(), want) {
					t.Fatalf("dialled entities %v, want %v", sn.Entities(), want)
				}
			}
		} else if err != nil {
			t.Fatalf("a dial with no list forged failed: %v", err)
		}
		defer sn.Close()

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a tracker needs a deadline
		defer cancel()
		tr := budget.New(ctx, budget.Limits{})
		bound := sn.BindRequest(tr, nil)
		switch target {
		case fuzzSpan:
			rd := fx.reads[pick%4]
			want, wellFormed := fx.span(rd, payload)
			fx.check(t, tr, rd.do(bound), want, !wellFormed)
		case fuzzBatch:
			bound.Prefetch(fx.batchReads())
			wants, refused := fx.batch(payload)
			for i, rd := range fx.batched() {
				fx.check(t, tr, rd.do(bound), wants[i], refused)
			}
		case fuzzScan:
			// Bound with no budget, so a refusal does not end the scan:
			// every term is read, and the refusal shows as the request's
			// degrade reason.
			scan := sn.BindRequest(nil, nil)
			var got []store.Spo
			scan.Match(store.Any, fx.p, store.Any, func(spo store.Spo) bool { got = append(got, spo); return true })
			run, wellFormed := fx.span(spanRead{p: fx.p, out: true}, payload)
			want := fx.group0
			if wellFormed {
				var forged []store.Spo
				for v := store.ID(1); v < fx.nTerms; v += 2 {
					for _, e := range run {
						forged = append(forged, store.Spo{S: v, P: fx.p, O: e.To})
					}
				}
				want = mergeSpos(fx.group0, forged)
			}
			if reason := scan.DegradeReason(); !slices.Equal(got, want) || (reason == budget.ReasonShard) == wellFormed {
				t.Fatalf("the scan read %d triples with degrade reason %q; want %d, degraded %v", len(got), reason, len(want), !wellFormed)
			}
		}

		kb.Graph.SetRemoteView(sn)
		defer kb.Graph.SetRemoteView(nil)
		sys.Answer(kb.Questions[int(pick)%len(kb.Questions)].Text) //nolint:errcheck // only a panic fails
	})
}

const (
	fuzzSpan = iota
	fuzzBatch
	fuzzScan
	fuzzList
	fuzzTargets
)

// replyForgery is what shard 1 answers in place of its own reply: payload,
// to every request of the target's kind.
type replyForgery struct {
	target  uint8
	op      byte // fuzzList's opcode
	payload []byte
}

func (fz *replyForgery) forges(op byte) bool {
	switch fz.target {
	case fuzzSpan, fuzzScan:
		return op >= store.OpOut && op <= store.OpInPred
	case fuzzBatch:
		return op == store.OpBatch
	}
	return op == fz.op
}

// spanRead is one per-vertex read of a vertex shard 1 owns, made through
// the View as the pipeline makes it.
type spanRead struct {
	v, p store.ID // p is store.Any for a full span
	out  bool     // the out side; else the in side
	want []store.Edge
}

func (rd spanRead) do(v store.View) []store.Edge {
	var span []store.Edge
	s, o := rd.v, store.Any
	if !rd.out {
		s, o = store.Any, rd.v
	}
	v.Match(s, rd.p, o, func(spo store.Spo) bool {
		if rd.out {
			span = append(span, store.Edge{Pred: spo.P, To: spo.O})
		} else {
			span = append(span, store.Edge{Pred: spo.P, To: spo.S})
		}
		return true
	})
	return span
}

// replyFixture holds the truth the forged replies are judged against: the
// cinema graph's frozen K = 2 arrays, as the servers serve them.
type replyFixture struct {
	nTerms    store.ID
	p         store.ID    // starring: the runs' and the scan's predicate
	reads     [4]spanRead // out span, in span, out run, in run
	group0    []store.Spo // shard 0's subjects' triples of p, in (S, O) order
	entities0 []store.ID  // shard 0's entity list
	entities1 []store.ID
	preds0    []store.ID // shard 0's predicate list: its subjects' out edges'
	preds1    []store.ID
	nPreds    int // the stats' predicate count: the merged list's length
}

func newReplyFixture(g *store.Graph) *replyFixture {
	sn := g.Freeze()
	p, _ := g.Lookup(rdf.Ontology("starring"))
	fx := &replyFixture{nTerms: store.ID(sn.NumTerms()), p: p}
	var outV, inV store.ID = store.None, store.None
	sn.Match(store.Any, p, store.Any, func(spo store.Spo) bool {
		if spo.S%2 == 0 {
			fx.group0 = append(fx.group0, spo)
		} else if outV == store.None {
			outV = spo.S
		}
		if spo.O%2 == 1 && inV == store.None {
			inV = spo.O
		}
		return true
	})
	fx.reads = [4]spanRead{{v: outV, p: store.Any, out: true}, {v: inV, p: store.Any}, {v: outV, p: p, out: true}, {v: inV, p: p}}
	for i := range fx.reads {
		fx.reads[i].want = fx.reads[i].do(sn)
	}
	for _, v := range sn.Entities() {
		if v%2 == 0 {
			fx.entities0 = append(fx.entities0, v)
		} else {
			fx.entities1 = append(fx.entities1, v)
		}
	}
	var preds [2]map[store.ID]bool
	preds[0], preds[1] = make(map[store.ID]bool), make(map[store.ID]bool)
	sn.Match(store.Any, store.Any, store.Any, func(spo store.Spo) bool {
		preds[spo.S%2][spo.P] = true
		return true
	})
	for v := range preds[0] {
		fx.preds0 = append(fx.preds0, v)
	}
	for v := range preds[1] {
		fx.preds1 = append(fx.preds1, v)
	}
	slices.Sort(fx.preds0)
	slices.Sort(fx.preds1)
	fx.nPreds = len(mergeIDs(fx.preds0, fx.preds1))
	return fx
}

// batched are the reads a batch forgery checks: out span, out run, in run.
func (fx *replyFixture) batched() []spanRead {
	return []spanRead{fx.reads[0], fx.reads[2], fx.reads[3]}
}

func (fx *replyFixture) batchReads() []store.Read {
	return []store.Read{store.ReadOut(fx.reads[0].v), store.ReadPred(fx.reads[2].v, fx.p, true), store.ReadPred(fx.reads[3].v, fx.p, false)}
}

// check holds one read to want, or, refused, to nothing read and the
// request degraded as shard-unavailable.
func (fx *replyFixture) check(t *testing.T, tr *budget.Tracker, got, want []store.Edge, refused bool) {
	t.Helper()
	reason := tr.Exhausted()
	if refused {
		if len(got) != 0 || reason != budget.ReasonShard {
			t.Fatalf("a refused reply read as %v with budget reason %q, want nothing and %q", got, reason, budget.ReasonShard)
		}
		return
	}
	if !slices.Equal(got, want) || reason != "" {
		t.Fatalf("read %v with budget reason %q, want %v and no degradation", got, reason, want)
	}
}

// body returns a reply payload's body when its status is OK.
func body(payload []byte) ([]byte, bool) {
	if len(payload) == 0 || payload[0] != store.StatusOK {
		return nil, false
	}
	return payload[1:], true
}

// ids decodes b as little-endian IDs when it is a whole number of them.
func ids(b []byte) ([]store.ID, bool) {
	if len(b)%4 != 0 {
		return nil, false
	}
	out := make([]store.ID, len(b)/4)
	for i := range out {
		out[i] = store.ID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, true
}

// spanOf is what a span body says, when it is well formed for rd.
func (fx *replyFixture) spanOf(rd spanRead, b []byte) ([]store.Edge, bool) {
	vs, ok := ids(b)
	if !ok || len(vs)%2 != 0 {
		return nil, false
	}
	span := make([]store.Edge, 0, len(vs)/2)
	for i := 0; i < len(vs); i += 2 {
		e := store.Edge{Pred: vs[i], To: vs[i+1]}
		if e.Pred >= fx.nTerms || e.To >= fx.nTerms || (rd.p != store.Any && e.Pred != rd.p) {
			return nil, false
		}
		if n := len(span); n > 0 && (e.Pred < span[n-1].Pred || (e.Pred == span[n-1].Pred && e.To <= span[n-1].To)) {
			return nil, false
		}
		span = append(span, e)
	}
	return span, true
}

func (fx *replyFixture) span(rd spanRead, payload []byte) ([]store.Edge, bool) {
	b, ok := body(payload)
	if !ok {
		return nil, false
	}
	return fx.spanOf(rd, b)
}

// batch returns what each batched read must answer: a well-formed
// sub-reply of a frame that parses to exactly one sub-reply per read and
// whose answered sub-replies are all well formed, else the true span (an
// empty payload, like an error status, fails the batch alone). Nothing
// is refused.
func (fx *replyFixture) batch(payload []byte) ([][]store.Edge, bool) {
	reads := fx.batched()
	wants := make([][]store.Edge, len(reads))
	for i, rd := range reads {
		wants[i] = rd.want
	}
	b, ok := body(payload)
	if !ok {
		return wants, false
	}
	forged := make([][]store.Edge, len(reads))
	answered := make([]bool, len(reads))
	for i, rd := range reads {
		if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
			return wants, false
		}
		n := binary.LittleEndian.Uint32(b)
		sub := b[4 : 4+n]
		b = b[4+n:]
		sb, ok := body(sub)
		if !ok {
			continue
		}
		if forged[i], answered[i] = fx.spanOf(rd, sb); !answered[i] {
			return wants, false
		}
	}
	if len(b) != 0 {
		return wants, false
	}
	for i := range reads {
		if answered[i] {
			wants[i] = forged[i]
		}
	}
	return wants, false
}

// list is what a dial-time list payload says, when it is well formed:
// terms, strictly ascending, an entity list only of shard 1's, and merged
// with shard 0's list as long as the stats say: as many entities as the
// two parts own, as many predicates as the graph has.
func (fx *replyFixture) list(op byte, payload []byte) ([]store.ID, bool) {
	b, ok := body(payload)
	vs, whole := ids(b)
	if !ok || !whole {
		return nil, false
	}
	for i, v := range vs {
		if v >= fx.nTerms || (i > 0 && v <= vs[i-1]) || (op == store.OpEntities && v%2 != 1) {
			return nil, false
		}
	}
	if op == store.OpEntities { // the parts' entity lists are disjoint
		return vs, len(vs) == len(fx.entities1)
	}
	return vs, len(mergeIDs(fx.preds0, vs)) == fx.nPreds
}

func mergeIDs(a, b []store.ID) []store.ID {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}

func mergeSpos(a, b []store.Spo) []store.Spo {
	out := slices.Concat(a, b)
	slices.SortFunc(out, func(x, y store.Spo) int {
		if x.S != y.S {
			return int(x.S) - int(y.S)
		}
		return int(x.O) - int(y.O)
	})
	return out
}

// ---------------------------------------------------------------- seeds

type replySeed struct {
	target, pick uint8
	payload      []byte
}

func u32s(vs ...store.ID) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func okReply(b []byte) []byte { return append([]byte{store.StatusOK}, b...) }

func edgeBytes(span []store.Edge) []byte {
	var b []byte
	for _, e := range span {
		b = append(b, u32s(e.Pred, e.To)...)
	}
	return b
}

// seeds are each target's true replies and one break of each reply check:
// a ragged body, an ID past the term count, an order break, a repeated
// entry, another predicate, a vertex the shard does not own, a list one
// entry short of the stats or one past them, an error
// status (with a message, and with none, which would decode as an empty
// reply), an empty payload, and for a batch each framing fault, a forged
// sub-reply and a forged one behind a trailing byte.
func (fx *replyFixture) seeds() []replySeed {
	var seeds []replySeed
	add := func(target, pick uint8, payloads ...[]byte) {
		for _, p := range payloads {
			seeds = append(seeds, replySeed{target, pick, p})
		}
	}
	errReply := append([]byte{1}, "forged error"...)
	bad := fx.nTerms | 1 // odd, so ownership alone never refuses it
	other := fx.p - 1    // a term that is not the predicate asked for

	for pick, rd := range fx.reads {
		t := edgeBytes(rd.want)
		add(fuzzSpan, uint8(pick), okReply(t))
		if len(rd.want) < 2 {
			panic("a seed read's span has fewer than two edges")
		}
		swapped := slices.Clone(rd.want)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		add(fuzzSpan, uint8(pick), okReply(append(slices.Clone(t), 0xff)), okReply(edgeBytes(swapped)),
			okReply(edgeBytes(append([]store.Edge{{Pred: rd.want[0].Pred, To: bad}}, rd.want[1:]...))))
	}
	repeated := append([]store.Edge{fx.reads[0].want[0]}, fx.reads[0].want...)
	add(fuzzSpan, 0, okReply(edgeBytes([]store.Edge{{Pred: bad, To: 0}})), okReply(edgeBytes(repeated)),
		errReply, []byte{1}, nil, okReply(nil))
	add(fuzzSpan, 2, okReply(edgeBytes([]store.Edge{{Pred: other, To: 0}})))
	add(fuzzSpan, 3, okReply(edgeBytes([]store.Edge{{Pred: min(fx.p, other), To: 0}, {Pred: max(fx.p, other), To: 0}})))

	subs := func(spans ...[]byte) []byte {
		out := []byte{store.StatusOK}
		for _, s := range spans {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
			out = append(out, s...)
		}
		return out
	}
	var sub [3][]byte
	for i, rd := range fx.batched() {
		sub[i] = okReply(edgeBytes(rd.want))
	}
	whole := subs(sub[:]...)
	lie := slices.Clone(whole)
	binary.LittleEndian.PutUint32(lie[1:], uint32(len(whole))) // the first sub-reply runs past the frame
	short := slices.Clone(whole)
	binary.LittleEndian.PutUint32(short[1:], uint32(len(sub[0])-1)) // one byte short, one stray
	add(fuzzBatch, 0, whole, subs(sub[0], sub[1]), append(slices.Clone(whole), 0), lie, short, whole[:3],
		subs(sub[0], nil, sub[2]), subs(sub[0], errReply, sub[2]),
		subs(sub[0], okReply(edgeBytes([]store.Edge{{Pred: fx.p, To: bad}})), sub[2]),
		subs(sub[0], okReply(nil), sub[2]), append(subs(sub[0], okReply(nil), sub[2]), 0),
		subs(sub[0], []byte{1}, sub[2]), errReply, nil)

	// A scan's seeds: one shard-1 subject's true run, answered for every
	// shard-1 term, and each break of it.
	run := fx.reads[2].want
	swappedRun := slices.Clone(run)
	swappedRun[0], swappedRun[1] = swappedRun[1], swappedRun[0]
	add(fuzzScan, 0, okReply(edgeBytes(run)), okReply(append(edgeBytes(run), 1)), okReply(edgeBytes(swappedRun)),
		okReply(edgeBytes([]store.Edge{run[0], run[0]})),
		okReply(edgeBytes([]store.Edge{{Pred: fx.p, To: bad}})),
		okReply(edgeBytes([]store.Edge{{Pred: bad, To: 0}})),
		okReply(edgeBytes([]store.Edge{{Pred: other, To: 0}})),
		okReply(edgeBytes([]store.Edge{{Pred: min(fx.p, other), To: 0}, {Pred: max(fx.p, other), To: 0}})),
		okReply(nil), errReply, []byte{1}, nil)

	for pick, list := range [2][]store.ID{fx.entities1, fx.preds1} {
		l := u32s(list...)
		add(fuzzList, uint8(pick), okReply(l), okReply(append(slices.Clone(l), 7)), okReply(u32s(append(slices.Clone(list), bad)...)),
			okReply(u32s(append(slices.Clone(list), list[0])...)), okReply(nil), errReply, []byte{1}, nil)
	}
	add(fuzzList, 0, okReply(u32s(0)), okReply(u32s(fx.entities1[:len(fx.entities1)-1]...)))
	add(fuzzList, 1, okReply(u32s(append(slices.Clone(fx.preds1), fx.nTerms-1)...)))
	return seeds
}
