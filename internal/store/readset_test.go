package store_test

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// wireCount is what crossed the wire to a set of shard servers: request
// frames that were single reads, request frames that were batches, and
// the reads the batches carried.
type wireCount struct{ singles, batches, inBatch atomic.Int64 }

func (w *wireCount) frames() int64 { return w.singles.Load() + w.batches.Load() }

func (w *wireCount) reset() {
	w.singles.Store(0)
	w.batches.Store(0)
	w.inBatch.Store(0)
}

// note classifies one request payload.
func (w *wireCount) note(req []byte) {
	if len(req) == 0 || req[0] != store.OpBatch {
		w.singles.Add(1)
		return
	}
	w.batches.Add(1)
	for subs := req[1:]; len(subs) > 0; subs = subs[1+int(subs[0]):] {
		w.inBatch.Add(1)
	}
}

// countedShards serves g from four loopback shard servers that count every
// request frame before answering it, and dials them.
func countedShards(t *testing.T, g *store.Graph) (*store.Snapshot, *wireCount) {
	t.Helper()
	w := &wireCount{}
	addrs := store.StartFrameShards(t, g, 4, func(srv *store.ShardServer, req []byte) ([]byte, bool) {
		w.note(req)
		return srv.Handle(req)
	})
	sn, err := store.DialShards(addrs, g.Terms(), store.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Close)
	w.reset() // the dial's own meta and list reads are not a question's
	return sn, w
}

// fanGraph is A -p-> M -q-> x_1..x_n, x_i -r-> t_i, every t_i a T: asked
// for "the T's two relations from A", the search's frontier two hops out
// is n vertices wide, spread over every shard, and everything nearer is one
// vertex. The n-independent prefix is interned first, so A, M and the
// predicates sit on the same shards at every n.
func fanGraph(n int) (*store.Graph, *core.QueryGraph) {
	g := store.New()
	id := func(t rdf.Term) store.ID { return g.Intern(t) }
	p, q, r := id(rdf.Ontology("p")), id(rdf.Ontology("q")), id(rdf.Ontology("r"))
	typ, class := id(rdf.NewIRI(rdf.RDFType)), id(rdf.Ontology("T"))
	a, m := id(rdf.Resource("A")), id(rdf.Resource("M"))
	g.AddSPO(a, p, m)
	xs, ts := make([]store.ID, n), make([]store.ID, n)
	for i := range xs {
		xs[i] = id(rdf.Resource(fmt.Sprintf("x%d", i)))
	}
	for i := range ts {
		ts[i] = id(rdf.Resource(fmt.Sprintf("t%d", i)))
	}
	for i := range xs {
		g.AddSPO(m, q, xs[i])
		g.AddSPO(xs[i], r, ts[i])
		g.AddSPO(ts[i], typ, class)
	}
	d := dict.New()
	query := &core.QueryGraph{
		Vertices: []core.Vertex{
			{Arg: core.Argument{Text: "A"}, Candidates: []core.VertexCandidate{{ID: a, Score: 1}}},
			{Arg: core.Argument{Text: "what", Wh: true}, Unconstrained: true},
			{Arg: core.Argument{Text: "T"}, Select: true, Candidates: []core.VertexCandidate{{ID: class, IsClass: true, Score: 1}}},
		},
		Edges: []core.Edge{
			{From: 0, To: 1, Phrase: d.Add("rel1", nil), Candidates: []core.EdgeCandidate{
				{Path: dict.Path{{Pred: p, Forward: true}}, Score: 1}}},
			{From: 1, To: 2, Phrase: d.Add("rel2", nil), Candidates: []core.EdgeCandidate{
				{Path: dict.Path{{Pred: q, Forward: true}, {Pred: r, Forward: true}}, Score: 1}}},
		},
	}
	return g, query
}

// TestRemoteReadSet pins what a question costs on the wire once reads are
// remembered for the request and hinted a frontier ahead, by running the
// real matcher over counted loopback shards.
func TestRemoteReadSet(t *testing.T) {
	const k = 4
	var frames, batches, inBatch [2]int64
	for i, n := range []int{8, 60} {
		g, q := fanGraph(n)
		want, _ := core.FindTopKMatches(g, q, core.MatchOptions{})
		if len(want) != n {
			t.Fatalf("n=%d: the local search found %d matches", n, len(want))
		}
		sn, w := countedShards(t, g)
		tr := obs.NewTrace("question", "")
		sp := tr.Root().Child("core.match")
		got, _ := core.FindTopKMatches(g, q, core.MatchOptions{View: sn, Span: sp})
		sp.Finish()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: remote matches diverge from local:\n got %v\nwant %v", n, got, want)
		}
		frames[i], batches[i], inBatch[i] = w.frames(), w.batches.Load(), w.inBatch.Load()
		singles := w.singles.Load()
		attr := func(key string) int64 {
			vs := tr.FindAttrs("core.match", key)
			if len(vs) != 1 {
				t.Fatalf("n=%d: span attribute %s recorded %d times", n, key, len(vs))
			}
			v, _ := strconv.ParseInt(vs[0], 10, 64)
			return v
		}
		reads, hits, batched, calls := attr("rpc_reads"), attr("rpc_read_hits"), attr("rpc_batch_reads"), attr("rpc_calls")
		t.Logf("n=%d: %d reads, %d hits, %d batched; frames: %d single + %d batch", n, reads, hits, batched, singles, batches[i])

		// The request's own accounting is what the wire saw.
		if calls != frames[i] || batched != inBatch[i] {
			t.Errorf("n=%d: request counted %d frames carrying %d batched reads, the wire %d and %d", n, calls, batched, frames[i], inBatch[i])
		}
		// Every read was served from the set or cost exactly one single-read
		// frame; and the set held it because a batch or an earlier single
		// read brought it, so hits never outnumber what those could serve.
		if reads != hits+singles {
			t.Errorf("n=%d: %d reads != %d hits + %d single-read frames", n, reads, hits, singles)
		}
		if hits < reads/2 || batched == 0 {
			t.Errorf("n=%d: %d of %d reads were hits, %d travelled in batches — the read set is not doing its job", n, hits, reads, batched)
		}
	}
	// While a frontier's reads fit one batch per shard, its width does not
	// show in the frame count: 8 targets and 60 cost the same frames. And a
	// hinted level costs at most one frame per shard. This search hints
	// seven: four n vertices wide (the seeds' costs, the x's behind the
	// t-seeds, the x's behind M, the type probes of the t's) and three one
	// vertex wide (A's pruning probe, M's spans over each of the two edges).
	if frames[0] != frames[1] || batches[0] != batches[1] {
		t.Errorf("8 targets took %d frames (%d batches), 60 targets %d (%d): the frame count grew with the frontier",
			frames[0], batches[0], frames[1], batches[1])
	}
	if batches[1] > 4*k+3 {
		t.Errorf("%d batch frames for four wide and three single-vertex levels over %d shards, want at most %d", batches[1], k, 4*k+3)
	}
	if inBatch[1] <= inBatch[0] {
		t.Errorf("60 targets batched %d reads, 8 targets %d: the wider frontier did not read more", inBatch[1], inBatch[0])
	}

	g, _ := fanGraph(8)
	local := g.Freeze()
	sn, w := countedShards(t, g)
	a, _ := g.Lookup(rdf.Resource("A"))
	p, _ := g.Lookup(rdf.Ontology("p"))
	hint := []store.Read{store.ReadPred(a, p, true)}

	// A bound snapshot reads a span once: the second identical read, and a
	// hint for it, send nothing.
	bound := sn.BindRequest(nil, nil)
	if !bound.Prefetches() {
		t.Fatal("a bound remote snapshot does not prefetch")
	}
	first := bound.OutPred(a, p)
	bound.Prefetch(hint)
	if again := bound.OutPred(a, p); len(first) != 1 || fmt.Sprint(again) != fmt.Sprint(first) || bound.OutPredDegree(a, p) != 1 {
		t.Fatalf("OutPred(A, p) read %v, then %v", first, again)
	}
	if w.frames() != 1 {
		t.Errorf("three reads and a hint of one span sent %d frames, want 1", w.frames())
	}
	// An unbound remote snapshot serves no request: it keeps no set and
	// takes no hint, so every read is a frame and a hint is none.
	w.reset()
	sn.Prefetch(hint)
	sn.OutPred(a, p)
	sn.OutPred(a, p)
	if sn.Prefetches() || w.singles.Load() != 2 || w.batches.Load() != 0 {
		t.Errorf("unbound remote snapshot: Prefetches() = %v, %d single frames, %d batches; want false, 2, 0",
			sn.Prefetches(), w.singles.Load(), w.batches.Load())
	}
	// A local snapshot binds to itself, and tells the matcher to build no
	// hint at all.
	if local.BindRequest(nil, nil) != local || local.Prefetches() {
		t.Error("a local snapshot bound to a copy of itself, or asks for hints")
	}
	local.Prefetch(hint)
	var none *store.Snapshot
	none.Prefetch(hint)
	if none.Prefetches() {
		t.Error("a nil snapshot asks for hints")
	}
}
