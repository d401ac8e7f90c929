package store

// The frozen graph. The mutable Graph is a load-optimized builder — maps
// and unsorted adjacency slices; every query reads a Snapshot instead: the
// graph recompacted into K ≥ 1 immutable parts (shard.go) of flat CSR
// arrays, so the hot operations of §4.2.2 neighborhood pruning —
// HasAdjacentPred, per-predicate neighbor runs, bound-s / bound-o pattern
// scans — are binary searches over contiguous memory with no map hashing
// and no lock. The same type serves a graph whose parts live in other
// processes: its reader is then the shard-RPC client (remote.go) and
// nothing above the reader can tell.
//
// Contract: FrozenView/Freeze never return nil — they return the snapshot
// at the graph's current mutation generation, building it first when the
// graph mutated since the last one (one build however many readers ask at
// once; on a sharded graph only the parts whose shard generation moved are
// rebuilt). A *Snapshot already handed out stays valid and self-contained
// forever: it shares nothing mutable with the graph, so its readers are
// safe while the Graph is mutated. Freezing itself reads the mutable
// structures and follows the graph's single-writer contract: it must not
// run concurrently with Add/Remove.

import (
	"context"
	"sync/atomic"
	"time"

	"gqa/internal/budget"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/rdf"
)

// Freeze metrics: how long a freeze takes, how much memory the frozen
// arrays hold, and how many parts were actually rebuilt (clean parts are
// reused and not counted).
var (
	snapshotBuildSeconds = obs.DefaultHistogram("gqa_store_snapshot_build_seconds",
		"Time to build one frozen CSR snapshot from the mutable graph.", nil)
	snapshotBytes = obs.DefaultGauge("gqa_store_snapshot_bytes",
		"Size of the most recently built snapshot's CSR arrays in bytes.")
	snapshotBuilds = obs.DefaultCounter("gqa_store_snapshot_builds_total",
		"Frozen CSR snapshots built (freezes after load or mutation).")
	shardFreezes = obs.DefaultCounter("gqa_store_shard_freezes_total",
		"Part CSRs rebuilt during freezes (clean shards are reused, not counted).")
)

// Snapshot is the frozen read surface and the one View implementation:
// the global facts every read shares (term table, merged entity and
// predicate lists, stats) plus a reader for everything per-vertex. It is
// immutable and safe for unlimited concurrent readers.
type Snapshot struct {
	gen   uint64
	k     int
	terms []rdf.Term // frozen slice header; term storage is append-only
	rd    reader
	parts localParts // the arrays behind rd; nil when the parts are remote

	rdfType  ID
	nTriples int
	predIDs  []ID // ascending union of the parts' predicate lists
	entities []ID // ascending union of the parts' entity lists
	stats    Stats
	bytes    int64
}

// SetShards configures vertex-hash sharding: k > 1 partitions the next
// freeze into k parts; k <= 1 restores the single-part layout. Switching
// drops the installed snapshot. Not safe to call concurrently with reads
// or mutation.
//
// The requested count is validated, not trusted: a negative k is treated
// as 0, and k is clamped to the current vertex count — residue classes
// beyond NumTerms would be permanently empty parts that every k-way merge
// still pays for. The effective shard count is returned
// (0 when unsharded); callers that care can log the clamp.
func (g *Graph) SetShards(k int) int {
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if n := len(g.terms); k > n {
		k = n
	}
	if k <= 1 {
		k = 0
	}
	g.shardK = k
	g.shardGens = make([]atomic.Uint64, k)
	g.snap.Store(nil)
	g.lastSharded = nil
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
// context's trace when a build happens.
func (g *Graph) FreezeCtx(ctx context.Context) *Snapshot {
	if sn := g.Frozen(); sn != nil {
		return sn
	}
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if sn := g.Frozen(); sn != nil {
		return sn
	}
	sp := obs.TraceFrom(ctx).Root().Child("store.freeze")
	start := time.Now()
	sn, rebuilt := g.buildSnapshot(max(g.shardK, 1), g.lastSharded)
	if sn.k > 1 {
		g.lastSharded = sn
	}
	g.snap.Store(sn)
	snapshotBuildSeconds.ObserveDuration(time.Since(start))
	snapshotBytes.Set(sn.bytes)
	snapshotBuilds.Inc()
	if sp.Enabled() {
		sp.SetInt("terms", int64(len(sn.terms)))
		sp.SetInt("triples", int64(sn.nTriples))
		sp.SetInt("bytes", sn.bytes)
		sp.SetInt("shards", int64(sn.k))
		sp.SetInt("shards_rebuilt", int64(rebuilt))
	}
	sp.Finish()
	return sn
}

// Frozen returns the installed snapshot, or nil when the graph has never
// been frozen or has mutated since — a peek that never builds.
func (g *Graph) Frozen() *Snapshot {
	if sn := g.snap.Load(); sn != nil && sn.gen == g.gen.Load() {
		return sn
	}
	return nil
}

// buildSnapshot freezes the graph into k parts at its current generation,
// reusing prev's parts wherever the shard's generation has not moved, and
// reports how many parts it rebuilt.
func (g *Graph) buildSnapshot(k int, prev *Snapshot) (*Snapshot, int) {
	gen := g.gen.Load()
	parts := make(localParts, k)
	rebuilt := 0
	for i := range parts {
		pgen := gen
		if k > 1 {
			pgen = g.shardGens[i].Load()
		}
		if prev != nil && prev.k == k && prev.parts[i].gen == pgen {
			parts[i] = prev.parts[i]
			continue
		}
		parts[i] = buildShardPart(g, i, k, pgen)
		rebuilt++
		shardFreezes.Inc()
	}
	sn := &Snapshot{
		gen: gen, k: k, terms: g.terms, rd: parts, parts: parts,
		rdfType: g.rdfType, nTriples: len(g.triples),
	}
	// Global assembly. Triples/Predicates/Classes are O(1) reads of the
	// live graph; literals are recounted over the term table so a literal
	// interned since a clean part's build still shows up.
	entityLists, predLists := make([][]ID, k), make([][]ID, k)
	for i, p := range parts {
		entityLists[i], predLists[i] = p.entities, p.predIDs
		sn.bytes += p.bytes
	}
	sn.entities = mergeIDLists(entityLists)
	sn.predIDs = mergeIDLists(predLists)
	sn.stats = Stats{
		Entities:   len(sn.entities),
		Classes:    len(g.classes),
		Triples:    len(g.triples),
		Predicates: len(g.preds),
	}
	for _, t := range sn.terms {
		if t.IsLiteral() {
			sn.stats.Literals++
		}
	}
	return sn, rebuilt
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

// mergeSpoGroups streams the union of (S, O)-sorted groups in global
// (S, O) order (subjects partition by shard, so heads never tie). It
// returns false when fn stopped the iteration.
func mergeSpoGroups(groups [][]Spo, fn func(Spo) bool) bool {
	for {
		best := -1
		for i, gr := range groups {
			if len(gr) == 0 {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := gr[0], groups[best][0]
			if a.S < b.S || (a.S == b.S && a.O < b.O) {
				best = i
			}
		}
		if best < 0 {
			return true
		}
		spo := groups[best][0]
		groups[best] = groups[best][1:]
		if !fn(spo) {
			return false
		}
	}
}

// ----------------------------------------------------------- the View

// Generation returns the graph mutation generation the snapshot was built
// at (each Add/Remove bumps the graph's generation).
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// NumShards returns K, the number of parts (1 for an unsharded graph).
func (sn *Snapshot) NumShards() int { return sn.k }

// Bytes returns the approximate heap size of the local parts' arrays.
func (sn *Snapshot) Bytes() int64 { return sn.bytes }

// NumTerms returns the number of interned terms at freeze time.
func (sn *Snapshot) NumTerms() int { return len(sn.terms) }

// NumTriples returns the number of distinct triples at freeze time.
func (sn *Snapshot) NumTriples() int { return sn.nTriples }

// NumPredicates returns the number of distinct predicates at freeze time.
func (sn *Snapshot) NumPredicates() int { return len(sn.predIDs) }

// Term returns the term for id (IDs are stable across freezes).
func (sn *Snapshot) Term(id ID) rdf.Term { return sn.terms[id] }

// TypeID returns the interned ID of rdf:type at freeze time, or None.
func (sn *Snapshot) TypeID() ID { return sn.rdfType }

// Stats returns the freeze-time summary statistics (Table 4 shape).
func (sn *Snapshot) Stats() Stats { return sn.stats }

// Entities returns all entity vertex IDs in ascending order. The returned
// slice is a copy and may be retained or modified by the caller.
func (sn *Snapshot) Entities() []ID {
	if len(sn.entities) == 0 {
		return nil
	}
	return append([]ID(nil), sn.entities...)
}

// Out and In return v's full adjacency spans sorted by (Pred, To); for In,
// Edge.To is the subject of the underlying triple. The slices may alias
// the snapshot's arrays and must not be modified.
func (sn *Snapshot) Out(v ID) []Edge { return sn.rd.outSpan(v) }
func (sn *Snapshot) In(v ID) []Edge  { return sn.rd.inSpan(v) }

// OutPred and InPred return v's edges labeled p, sorted by To.
func (sn *Snapshot) OutPred(v, p ID) []Edge { return sn.rd.outPred(v, p) }
func (sn *Snapshot) InPred(v, p ID) []Edge  { return sn.rd.inPred(v, p) }

// OutPredDegree and InPredDegree are the exact per-vertex per-predicate
// degrees the selectivity-ordered matcher plans with.
func (sn *Snapshot) OutPredDegree(v, p ID) int { return len(sn.rd.outPred(v, p)) }
func (sn *Snapshot) InPredDegree(v, p ID) int  { return len(sn.rd.inPred(v, p)) }

// OutDegree, InDegree and Degree are span widths.
func (sn *Snapshot) OutDegree(v ID) int { out, _ := sn.rd.degrees(v); return out }
func (sn *Snapshot) InDegree(v ID) int  { _, in := sn.rd.degrees(v); return in }
func (sn *Snapshot) Degree(v ID) int    { out, in := sn.rd.degrees(v); return out + in }

// HasAdjacentPred reports whether v has any incident edge (either
// direction) labeled p — the §4.2.2 neighborhood pruning test.
func (sn *Snapshot) HasAdjacentPred(v, p ID) bool { return sn.rd.hasAdjacentPred(v, p) }

// Has reports whether the triple is present.
func (sn *Snapshot) Has(s, p, o ID) bool { return sn.rd.has(s, p, o) }

// IsClass and IsEntity read the role bitmap computed at freeze time.
func (sn *Snapshot) IsClass(v ID) bool  { return sn.rd.role(v)&roleClass != 0 }
func (sn *Snapshot) IsEntity(v ID) bool { return sn.rd.role(v)&roleEntity != 0 }

// PredCount returns the number of triples using predicate p.
func (sn *Snapshot) PredCount(p ID) int {
	n := 0
	for _, gr := range sn.rd.predGroups(p) {
		n += len(gr)
	}
	return n
}

// Match calls fn for every triple matching the (s, p, o) pattern (Any is
// the wildcard), stopping early if fn returns false. Every bound position
// resolves to one span read in the owning part; predicate-major scans
// merge the parts' groups back into global (S, O) order, so the iteration
// order — (Pred, To) within a vertex, (P, S, O) across the graph — is the
// same at every K.
func (sn *Snapshot) Match(s, p, o ID, fn func(Spo) bool) {
	faultpoint.Hit(faultpoint.StoreMatch)
	switch {
	case s != Any && p != Any && o != Any:
		if sn.rd.has(s, p, o) {
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
		mergeSpoGroups(sn.rd.predGroups(p), fn)
	default:
		for _, pid := range sn.predIDs {
			if !mergeSpoGroups(sn.rd.predGroups(pid), fn) {
				return
			}
		}
	}
}

// Count returns the number of triples matching the pattern.
func (sn *Snapshot) Count(s, p, o ID) int {
	n := 0
	sn.Match(s, p, o, func(Spo) bool { n++; return true })
	return n
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
	rep, ok := rr.req.lookup(r)
	return rep.edges, ok
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
