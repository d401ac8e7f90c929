package store

// The frozen graph. Every query reads a Snapshot: the graph compacted into
// K ≥ 1 immutable parts (shard.go) of flat CSR arrays, so the hot
// operations of §4.2.2 neighborhood pruning — HasAdjacentPred,
// per-predicate neighbor runs, bound-s / bound-o pattern scans — are
// binary searches over contiguous memory with no map hashing and no lock.
// The same type serves a graph whose parts live in other processes: its
// reader is then the shard-RPC client (remote.go) and nothing above the
// reader can tell.
//
// Contract: FrozenView/Freeze never return nil — they return the snapshot
// at the graph's current mutation generation and shard count, building it
// first when the graph mutated since the last one (one build however many
// readers ask at once, and every build compacts all K parts at the graph's
// one generation). The first freeze reads the graph's
// insertion-order lists and releases them; the snapshot it builds is from
// then on the graph's base, and each later freeze reads the base's spans
// and the rows writes since have thawed (graph.go), then becomes the new
// base. A *Snapshot already handed out stays valid and self-contained
// forever: nothing writes to it, so its readers are safe while the Graph
// is mutated. Freezing follows the graph's single-writer contract: it must
// not run concurrently with Add/Remove.

import (
	"context"
	"slices"
	"time"

	"gqa/internal/budget"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/rdf"
)

// Freeze metrics: how long a freeze takes, how much memory the frozen
// arrays hold, and how many freezes there were.
var (
	snapshotBuildSeconds = obs.DefaultHistogram("gqa_store_snapshot_build_seconds",
		"Time to build one frozen CSR snapshot from the mutable graph.", nil)
	snapshotBytes = obs.DefaultGauge("gqa_store_snapshot_bytes",
		"Resident size of the most recently built or loaded snapshot in bytes: its CSR arrays and the graph's term table (arena, columns and index).")
	snapshotBuilds = obs.DefaultCounter("gqa_store_snapshot_builds_total",
		"Frozen CSR snapshots built (freezes after load or mutation).")
)

// Snapshot is the frozen read surface and the one View implementation:
// the global facts every read shares (term table, merged entity and
// predicate lists, stats) plus a reader for everything per-vertex. It is
// immutable and safe for unlimited concurrent readers.
type Snapshot struct {
	gen   uint64
	k     int
	terms termTable // the dictionary's frozen copy (terms.go)
	rd    reader
	parts localParts // the arrays behind rd; nil when the parts are remote

	rdfType  ID
	nTriples int
	predIDs  []ID // ascending union of the parts' predicate lists
	entities []ID // ascending union of the parts' entity lists
	labels   []ID // LabelOf's column (labelColumn); nil when remote or the graph has no rdfs:label
	stats    Stats
	bytes    int64 // resident size: the parts' arrays, the label column and the graph's term table
}

// SetShards configures vertex-hash sharding: k > 1 partitions the next
// freeze into k parts; k <= 1 restores the single-part layout. A graph
// already frozen keeps its snapshot as the base the next freeze
// re-partitions from, as every freeze builds all of its parts. Not safe to
// call concurrently with reads or mutation.
//
// The requested count is validated, not trusted: a negative k is treated
// as 0, and k is clamped to the current vertex count — residue classes
// beyond NumTerms would be permanently empty parts that every freeze
// still builds. The effective shard count is returned
// (0 when unsharded); callers that care can log the clamp.
func (g *Graph) SetShards(k int) int {
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if n := g.terms.len(); k > n {
		k = n
	}
	if k <= 1 {
		k = 0
	}
	g.shardK = k
	return k
}

// NumShards returns the configured shard count (0 when unsharded).
func (g *Graph) NumShards() int { return g.shardK }

// FrozenView returns the graph's read surface: the remote view when one is
// installed (SetRemoteView), otherwise the snapshot at the current
// generation, frozen on demand. It never returns nil.
func (g *Graph) FrozenView() View {
	if rv := g.remoteView.Load(); rv != nil {
		return *rv
	}
	return g.Freeze()
}

// Freeze returns the snapshot of the graph's current state, building one
// only when the installed snapshot is missing or stale. Calling Freeze on
// an unchanged graph is a pointer load.
func (g *Graph) Freeze() *Snapshot { return g.FreezeCtx(context.Background()) }

// FreezeCtx is Freeze with a trace span ("store.freeze") recorded on the
// context's trace when a build happens; the span and the build histogram
// are the same interval.
func (g *Graph) FreezeCtx(ctx context.Context) *Snapshot {
	if sn := g.Frozen(); sn != nil {
		return sn
	}
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if sn := g.Frozen(); sn != nil {
		return sn
	}
	start := time.Now()
	sp := obs.TraceFrom(ctx).Root().ChildAt("store.freeze", start)
	sn := g.buildSnapshot(max(g.shardK, 1))
	g.snap.Store(sn)
	g.out, g.in, g.byPred, g.thawOut, g.thawIn = nil, nil, nil, nil, nil
	end := time.Now()
	snapshotBuildSeconds.ObserveDuration(end.Sub(start))
	snapshotBytes.Set(sn.bytes)
	snapshotBuilds.Inc()
	if sp.Enabled() {
		sp.SetInt("terms", int64(sn.terms.len()))
		sp.SetInt("triples", int64(sn.nTriples))
		sp.SetInt("bytes", sn.bytes)
		sp.SetInt("shards", int64(sn.k))
	}
	sp.FinishAt(end)
	return sn
}

// Frozen returns the installed snapshot, or nil when the graph has never
// been frozen, has mutated since or was re-sharded — a peek that never
// builds.
func (g *Graph) Frozen() *Snapshot {
	if sn := g.snap.Load(); sn != nil && sn.gen == g.gen.Load() && sn.k == max(g.shardK, 1) {
		return sn
	}
	return nil
}

// buildSnapshot freezes the graph into k parts, each built from the
// graph's rows at its current generation and term count. It installs
// nothing.
func (g *Graph) buildSnapshot(k int) *Snapshot {
	parts := make(localParts, k)
	for i := range parts {
		parts[i] = buildShardPart(g, i, k)
	}
	sn := &Snapshot{
		gen: g.gen.Load(), k: k, terms: g.terms.frozen(), rd: parts, parts: parts,
		rdfType: g.rdfType, nTriples: g.nTriples, labels: labelColumn(parts, &g.terms, g.labelPred),
	}
	// Global assembly. Triples/Predicates/Classes are O(1) reads of the
	// live graph; the parts between them own every term, so their literal
	// counts sum to the table's.
	sn.bytes = g.terms.bytes() + 4*int64(len(sn.labels))
	entityLists, predLists := make([][]ID, k), make([][]ID, k)
	literals := 0
	for i, p := range parts {
		entityLists[i], predLists[i] = p.entities, p.predIDs
		sn.bytes += p.bytes
		literals += p.literals
	}
	sn.entities = mergeIDLists(entityLists)
	sn.predIDs = mergeIDLists(predLists)
	sn.stats = Stats{
		Entities:   len(sn.entities),
		Classes:    len(g.classes),
		Literals:   literals,
		Triples:    sn.nTriples,
		Predicates: len(g.preds),
	}
	return sn
}

// labelColumn is LabelOf's column over the parts' terms: per term, the ID
// of the first literal in its out span's rdfs:label run (lp's), or None.
// It is nil when lp is None: no term has a label.
func labelColumn(parts localParts, terms *termTable, lp ID) []ID {
	if lp == None {
		return nil
	}
	labels := make([]ID, parts[0].nTerms)
	for _, p := range parts {
		for l := range p.roles {
			v := p.shard + l*p.k
			labels[v] = None
			for _, e := range predSpan(p.outEdges[p.outOff[l]:p.outOff[l+1]], lp) {
				if terms.kind(e.To) == rdf.KindLiteral {
					labels[v] = e.To
					break
				}
			}
		}
	}
	return labels
}

// mergeIDLists k-way-merges ascending ID lists into one ascending,
// deduplicated list (predicate lists can repeat an ID across shards). The
// inputs are immutable, so a lone list is returned as is.
func mergeIDLists(lists [][]ID) []ID {
	if len(lists) == 1 {
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]ID, 0, total)
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0] < lists[best][0]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := lists[best][0]
		lists[best] = lists[best][1:]
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
}

// ----------------------------------------------------------- the View

// Generation returns the graph mutation generation the snapshot was built
// at (each Add/Remove bumps the graph's generation).
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// NumShards returns K, the number of parts (1 for an unsharded graph).
func (sn *Snapshot) NumShards() int { return sn.k }

// NumTerms returns the number of interned terms at freeze time.
func (sn *Snapshot) NumTerms() int { return sn.terms.len() }

// Term returns the term for id (IDs are stable across freezes).
func (sn *Snapshot) Term(id ID) rdf.Term { return sn.terms.term(id) }

// TypeID returns the interned ID of rdf:type at freeze time, or None.
func (sn *Snapshot) TypeID() ID { return sn.rdfType }

// Entities returns all entity vertex IDs in ascending order. The returned
// slice is a copy and may be retained or modified by the caller.
func (sn *Snapshot) Entities() []ID {
	if len(sn.entities) == 0 {
		return nil
	}
	return append([]ID(nil), sn.entities...)
}

// OutPred and InPred return v's edges labeled p, sorted by To. The slices
// may alias the snapshot's arrays and must not be modified.
func (sn *Snapshot) OutPred(v, p ID) []Edge { return sn.rd.outPred(v, p) }
func (sn *Snapshot) InPred(v, p ID) []Edge  { return sn.rd.inPred(v, p) }

// OutPredDegree and InPredDegree are the exact per-vertex per-predicate
// degrees the selectivity-ordered matcher plans with.
func (sn *Snapshot) OutPredDegree(v, p ID) int { return len(sn.rd.outPred(v, p)) }
func (sn *Snapshot) InPredDegree(v, p ID) int  { return len(sn.rd.inPred(v, p)) }

// OutDegree, InDegree and Degree are span widths.
func (sn *Snapshot) OutDegree(v ID) int { return len(sn.rd.outSpan(v)) }
func (sn *Snapshot) InDegree(v ID) int  { return len(sn.rd.inSpan(v)) }
func (sn *Snapshot) Degree(v ID) int    { return sn.OutDegree(v) + sn.InDegree(v) }

// HasAdjacentPred reports whether v has any incident edge (either
// direction) labeled p — the §4.2.2 neighborhood pruning test: v's out
// p-run, then its in p-run.
func (sn *Snapshot) HasAdjacentPred(v, p ID) bool {
	return len(sn.rd.outPred(v, p)) > 0 || len(sn.rd.inPred(v, p)) > 0
}

// Has reports whether the triple is present: one search of s's out span,
// wherever o lives.
func (sn *Snapshot) Has(s, p, o ID) bool { return spanHas(sn.rd.outSpan(s), p, o) }

// Match calls fn for every triple matching the (s, p, o) pattern (Any is
// the wildcard), stopping early if fn returns false. Every read is a span
// read in the part owning its vertex: a bound position reads that vertex's
// span, and a predicate-major scan walks the subjects (scanPred), so the
// iteration order — (Pred, To) within a vertex, (P, S, O) across the graph
// — is the same at every K and over the wire.
func (sn *Snapshot) Match(s, p, o ID, fn func(Spo) bool) {
	faultpoint.Hit(faultpoint.StoreMatch)
	switch {
	case s != Any && p != Any && o != Any:
		if sn.Has(s, p, o) {
			fn(Spo{s, p, o})
		}
	case s != Any:
		var span []Edge
		if p != Any {
			span = sn.rd.outPred(s, p)
		} else {
			span = sn.rd.outSpan(s)
		}
		for _, e := range span {
			if o != Any && e.To != o {
				continue
			}
			if !fn(Spo{s, e.Pred, e.To}) {
				return
			}
		}
	case o != Any:
		var span []Edge
		if p != Any {
			span = sn.rd.inPred(o, p)
		} else {
			span = sn.rd.inSpan(o)
		}
		for _, e := range span {
			if !fn(Spo{e.To, e.Pred, o}) {
				return
			}
		}
	case p != Any:
		sn.scanPred(p, fn)
	default:
		for _, pid := range sn.predIDs {
			if !sn.scanPred(pid, fn) {
				return
			}
		}
	}
}

// scanPred calls fn for every triple of predicate p in (S, O) order: each
// subject's out p-run, subjects ascending. A predicate no edge has reads
// nothing. It returns false when fn stopped the scan.
func (sn *Snapshot) scanPred(p ID, fn func(Spo) bool) bool {
	if _, ok := slices.BinarySearch(sn.predIDs, p); !ok {
		return true
	}
	for v := range ID(sn.terms.len()) {
		for _, e := range sn.rd.outPred(v, p) {
			if !fn(Spo{v, p, e.To}) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------- per-request binding

// BindRequest scopes a snapshot whose reads can fail or stall — one over
// remote parts — to a single request: per-call deadlines derive from the
// tracker's deadline, an unrecoverable read failure trips the tracker
// (FailShardUnavailable) so the request degrades instead of hanging, and
// RPC telemetry lands under sp. The bound copy also remembers every read
// it has made (the read set, remote.go), so within the request a repeated
// read costs no frame. It must be used only for that request. A snapshot
// over local parts returns itself.
func (sn *Snapshot) BindRequest(b *budget.Tracker, sp *obs.Span) *Snapshot {
	rr, ok := sn.rd.(*rpcReader)
	if !ok {
		return sn
	}
	bound := *sn
	bound.rd = &rpcReader{shardClient: rr.shardClient, req: &rpcReq{b: b, sp: sp}}
	return &bound
}

// boundRemote returns the reader of a request-bound snapshot over remote
// parts, or nil for a local, unbound or nil snapshot.
func (sn *Snapshot) boundRemote() *rpcReader {
	if sn == nil {
		return nil
	}
	if rr, ok := sn.rd.(*rpcReader); ok && rr.req != nil {
		return rr
	}
	return nil
}

// Prefetches reports whether Prefetch does anything on this snapshot: only
// on a request-bound snapshot over remote parts. Callers test it once and
// build no hint at all on local parts.
func (sn *Snapshot) Prefetches() bool { return sn.boundRemote() != nil }

// Prefetch tells a request-bound snapshot over remote parts which reads
// are about to be made, so it can fetch those it has not made yet in one
// frame per owning shard instead of one per read. It is advisory: it
// returns nothing, fails silently, and changes no answer — a read whose
// prefetch did not arrive goes to its shard as it would have anyway. A
// no-op on a local, unbound or nil snapshot.
func (sn *Snapshot) Prefetch(reads []Read) {
	if rr := sn.boundRemote(); rr != nil && len(reads) > 0 {
		rr.prefetch(reads)
	}
}

// Prefetched returns the span of a read the bound snapshot's request has
// already made or prefetched, without touching the wire — so a caller
// walking ahead of the search (dict.PrefetchPaths) can follow what arrived
// and can neither fail nor degrade the request over what did not. ok is
// false for a read not held, and on a local, unbound or nil snapshot.
func (sn *Snapshot) Prefetched(r Read) (span []Edge, ok bool) {
	rr := sn.boundRemote()
	if rr == nil {
		return nil, false
	}
	return rr.req.lookup(r)
}

// DegradeReason reports "shard-unavailable" once any read of this bound
// snapshot failed past its retries and answered empty — the degradation
// signal for requests without a budget tracker, where there was nothing
// to trip. It is "" for an unbound, local or nil snapshot.
func (sn *Snapshot) DegradeReason() string {
	if rr := sn.boundRemote(); rr != nil && rr.req.errs.Load() > 0 {
		return budget.ReasonShard
	}
	return ""
}

// AnnotateSpan flushes a bound snapshot's per-request RPC counters onto
// the search span: frames (rpc_calls / rpc_retries / rpc_errors) and the
// reads they carried (rpc_reads asked, rpc_read_hits served from the read
// set, rpc_batch_reads sent ahead in batches). The flight recorder lifts
// them into the wide event. A no-op on an unbound, local or nil snapshot.
func (sn *Snapshot) AnnotateSpan(sp *obs.Span) {
	rr := sn.boundRemote()
	if rr == nil || !sp.Enabled() {
		return
	}
	sp.SetInt("rpc_calls", rr.req.calls.Load())
	sp.SetInt("rpc_retries", rr.req.retries.Load())
	sp.SetInt("rpc_errors", rr.req.errs.Load())
	sp.SetInt("rpc_reads", rr.req.reads.Load())
	sp.SetInt("rpc_read_hits", rr.req.readHits.Load())
	sp.SetInt("rpc_batch_reads", rr.req.batchReads.Load())
}
