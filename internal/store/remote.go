package store

// The coordinator side of multi-process sharding: the second reader. A
// Snapshot built by DialShards holds the global facts locally (term table,
// merged entity and predicate lists, stats) and routes every primitive
// read — one per method of the reader interface — over the shard RPC
// protocol (shardrpc.go) to the gqa-shard server owning the vertex, so the
// matcher's scatter-gather rounds, the SPARQL evaluator and the dict path
// walks run unchanged over the wire. Each server answers from the exact
// arrays its part file froze, through the same localParts reader an
// in-process snapshot uses, and the View above merges predicate-major
// groups with the same merge — so remote answers are byte-identical to
// local ones.
//
// The robustness work lives here, not in the server: per-call deadlines
// derived from the request budget (a call never outlives the request it
// serves), bounded retries with doubling backoff on transport errors,
// per-shard connection pools behind a down-marker breaker (a dead shard
// fails fast for a cooldown instead of paying the full timeout on every
// probe), and structured degradation: when a read has exhausted its
// retries the request's budget is tripped with reason "shard-unavailable"
// and the read returns empty — the search degrades to the best partial
// answer, exactly like a deadline trip, and never hangs.
//
// What keeps the wire cheap lives here too. A bound reader keeps a read
// set for the life of its request — every reply it has decoded, keyed by
// the read — so a question crosses the wire once per distinct read, and
// Prefetch lets a caller that knows a frontier's reads ahead fetch them in
// one batch frame per owning shard. Both only change how many frames carry
// an answer, never the answer: the set serves what the single read
// decoded, and a prefetch that fails stores nothing.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gqa/internal/budget"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/rdf"
)

// Shard-RPC client metrics (the gqa_rpc_* series).
var (
	rpcCallsTotal = obs.DefaultCounter("gqa_rpc_calls_total",
		"Shard-RPC call attempts issued by the coordinator (retries included).")
	rpcRetriesTotal = obs.DefaultCounter("gqa_rpc_retries_total",
		"Shard-RPC attempts that were retries after a transient transport error.")
	rpcErrorsTotal = obs.DefaultCounter("gqa_rpc_errors_total",
		"Shard-RPC calls that failed after exhausting their retries.")
	rpcReadsTotal = obs.DefaultCounter("gqa_rpc_reads_total",
		"Per-vertex reads asked of request-bound shard-RPC readers (served from the read set or the wire).")
	rpcReadHitsTotal = obs.DefaultCounter("gqa_rpc_read_hits_total",
		"Per-vertex reads served from a request's read set without a frame.")
	rpcBatchReadsTotal = obs.DefaultCounter("gqa_rpc_batch_reads_total",
		"Per-vertex reads sent ahead of need inside batch frames.")
	// A loopback call takes 10–40 µs, under TimeBuckets' first bound, so
	// the ladder starts two decades lower.
	rpcCallSeconds = obs.DefaultHistogram("gqa_rpc_call_seconds",
		"Latency of individual shard-RPC call attempts (successful or not).",
		append([]float64{5e-6, 10e-6, 25e-6, 50e-6}, obs.TimeBuckets...))
)

// RemoteOptions tunes the shard-RPC client. The zero value gets serving
// defaults (fill).
type RemoteOptions struct {
	// DialTimeout bounds one TCP connect to a shard server.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline cap. The effective deadline of
	// every call is min(now+CallTimeout, request budget deadline).
	CallTimeout time.Duration
	// Retries is how many times a call is re-attempted after a transient
	// transport error (dial failure, reset, timeout). Server-reported
	// errors are not retried — they are deterministic.
	Retries int
	// RetryBackoff is the first retry's backoff; it doubles per retry.
	RetryBackoff time.Duration
	// DownCooldown is how long a shard that exhausted a call's retries
	// fails fast before the next attempt probes it again.
	DownCooldown time.Duration
}

func (o *RemoteOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.DownCooldown <= 0 {
		o.DownCooldown = 250 * time.Millisecond
	}
}

// shardPoolSize caps the idle pooled connections per shard.
const shardPoolSize = 4

// errShardDown is returned without touching the network while a shard's
// breaker cooldown is running.
var errShardDown = errors.New("store: shard marked down (cooldown)")

// shardConnPool is one shard's connection pool plus its health breaker.
type shardConnPool struct {
	addr string
	size int

	mu   sync.Mutex
	free []net.Conn

	// downUntil is the breaker: while now < downUntil every call fails
	// fast. Set when a call exhausts its retries; cleared implicitly by
	// the cooldown elapsing (half-open: the next call probes for real).
	downUntil atomic.Int64
}

func (p *shardConnPool) get(dialTimeout time.Duration) (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	if err := faultpoint.HitErr(faultpoint.RPCDial); err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return c, nil
}

func (p *shardConnPool) put(c net.Conn) {
	p.mu.Lock()
	if len(p.free) < p.size {
		p.free = append(p.free, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

func (p *shardConnPool) isDown() bool {
	return time.Now().UnixNano() < p.downUntil.Load()
}

func (p *shardConnPool) markDown(cooldown time.Duration) {
	p.downUntil.Store(time.Now().Add(cooldown).UnixNano())
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}

func (p *shardConnPool) closeAll() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}

// rpcReq is the per-request state a bound reader carries: the budget the
// calls derive deadlines from (and trip on failure), the span RPC
// telemetry lands on, the request's own counters, and its read set.
type rpcReq struct {
	b  *budget.Tracker
	sp *obs.Span

	calls   atomic.Int64 // frames attempted (retries included)
	retries atomic.Int64
	errs    atomic.Int64

	reads      atomic.Int64 // per-vertex reads asked of the reader
	readHits   atomic.Int64 // ... served from the read set
	batchReads atomic.Int64 // reads sent ahead inside batch frames

	// The read set: every successful per-vertex read of this request,
	// decoded. A bound snapshot is one immutable generation serving one
	// request, so an entry is never invalidated and dies with the request.
	// held counts entries plus the edges they hold; past readSetCap nothing
	// more is added, which bounds an unbudgeted request's memory.
	mu   sync.RWMutex
	set  map[Read]readReply
	held int
}

// readSetCap bounds a read set: entries plus held edges (8 bytes each).
const readSetCap = 1 << 20

func (st *rpcReq) lookup(k Read) (readReply, bool) {
	st.mu.RLock()
	rep, ok := st.set[k]
	st.mu.RUnlock()
	return rep, ok
}

func (st *rpcReq) store(k Read, rep readReply) {
	st.mu.Lock()
	if _, dup := st.set[k]; !dup && st.held < readSetCap {
		if st.set == nil {
			st.set = make(map[Read]readReply)
		}
		st.set[k] = rep
		st.held += 1 + len(rep.edges)
	}
	st.mu.Unlock()
}

// shardClient is the connection state shared by every reader over one set
// of shard servers; safe for concurrent use by many requests.
type shardClient struct {
	k     int
	opts  RemoteOptions
	pools []*shardConnPool
}

// rpcReader is the reader over K shard servers. req is nil on the shared
// unbound reader — reads outside a request scope (the linker's
// construction-time probes) get default per-call deadlines and degrade to
// empty with nothing to trip — and set on the per-request copy
// Snapshot.BindRequest makes.
type rpcReader struct {
	*shardClient
	req *rpcReq
}

// DialShards connects to one shard server per address (addrs[i] must
// serve shard i of K=len(addrs)), validates that every part describes
// the same frozen graph — matching global generation, term count, triple
// count, and stats — and that it matches the coordinator's term table,
// then assembles the snapshot's global structures (merged entity and
// predicate lists) as a local freeze does. terms is the coordinator's
// interned term table; Term lookups are served from it locally (the
// dictionary never crosses the wire). Close the snapshot when done.
func DialShards(addrs []string, terms []rdf.Term, opts RemoteOptions) (*Snapshot, error) {
	k := len(addrs)
	if k < 2 {
		return nil, fmt.Errorf("store: DialShards needs at least 2 shard addresses, have %d", k)
	}
	opts.fill()
	r := &rpcReader{shardClient: &shardClient{k: k, opts: opts, pools: make([]*shardConnPool, k)}}
	for i, addr := range addrs {
		r.pools[i] = &shardConnPool{addr: addr, size: shardPoolSize}
	}
	metas := make([]shardMeta, k)
	for i := 0; i < k; i++ {
		resp, err := r.call(i, []byte{shrOpMeta})
		if err != nil {
			return nil, fmt.Errorf("store: DialShards: shard %d (%s): %w", i, addrs[i], err)
		}
		m, err := decodeShardMeta(resp)
		if err != nil {
			return nil, fmt.Errorf("store: DialShards: shard %d (%s): %w", i, addrs[i], err)
		}
		metas[i] = m
	}
	m0 := metas[0]
	for i, m := range metas {
		if int(m.k) != k {
			return nil, fmt.Errorf("store: DialShards: shard server %d is part of a %d-shard set, dialing %d", i, m.k, k)
		}
		if int(m.shard) != i {
			return nil, fmt.Errorf("store: DialShards: address %d serves shard %d — addresses must be in shard order", i, m.shard)
		}
		if m.gen != m0.gen || m.nTerms != m0.nTerms || m.nTriples != m0.nTriples || m.stats != m0.stats || m.rdfType != m0.rdfType {
			return nil, fmt.Errorf("store: DialShards: shard %d disagrees with shard 0 on the frozen graph (gen %d vs %d) — parts from different exports?", i, m.gen, m0.gen)
		}
	}
	if int(m0.nTerms) != len(terms) {
		return nil, fmt.Errorf("store: DialShards: shard set froze %d terms, coordinator holds %d — generation mismatch", m0.nTerms, len(terms))
	}
	entityLists := make([][]ID, k)
	predLists := make([][]ID, k)
	for i := 0; i < k; i++ {
		resp, err := r.call(i, []byte{shrOpEntities})
		if err != nil {
			return nil, fmt.Errorf("store: DialShards: shard %d entities: %w", i, err)
		}
		entityLists[i] = decodeFrzIDs(resp)
		resp, err = r.call(i, []byte{shrOpPredIDs})
		if err != nil {
			return nil, fmt.Errorf("store: DialShards: shard %d predicates: %w", i, err)
		}
		predLists[i] = decodeFrzIDs(resp)
	}
	return &Snapshot{
		gen: m0.gen, k: k, terms: terms, rd: r,
		rdfType: ID(m0.rdfType), nTriples: int(m0.nTriples), stats: m0.stats,
		entities: mergeIDLists(entityLists), predIDs: mergeIDLists(predLists),
	}, nil
}

// Close tears down every pooled connection of a snapshot over remote
// parts; in-flight calls on checked-out connections finish (or fail) on
// their own deadlines. A no-op on a local snapshot.
func (sn *Snapshot) Close() {
	if rr, ok := sn.rd.(*rpcReader); ok {
		for _, p := range rr.pools {
			p.closeAll()
		}
	}
}

// ------------------------------------------------------------- transport

// errServer wraps an error frame the server answered with; it is
// deterministic (the server handled the request) and never retried.
type errServer struct{ msg string }

func (e *errServer) Error() string { return "shard server: " + e.msg }

// attempt performs exactly one call on one pooled (or fresh) connection.
func (r *rpcReader) attempt(shard int, req []byte) ([]byte, error) {
	st := r.req
	rpcCallsTotal.Inc()
	if st != nil {
		st.calls.Add(1)
	}
	pool := r.pools[shard]
	conn, err := pool.get(r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(r.opts.CallTimeout)
	if st != nil {
		if d, ok := st.b.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
	}
	conn.SetDeadline(deadline) //nolint:errcheck
	start := time.Now()
	if err := writeFrame(conn, req); err != nil {
		conn.Close()
		rpcCallSeconds.ObserveDuration(time.Since(start))
		return nil, err
	}
	resp, err := readFrame(conn, maxShardRespFrame)
	rpcCallSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	pool.put(conn)
	if len(resp) == 0 {
		return nil, errors.New("empty response frame")
	}
	if resp[0] != shrStatusOK {
		return nil, &errServer{msg: string(resp[1:])}
	}
	return resp[1:], nil
}

// call is the retrying call path: bounded re-attempts with doubling
// backoff on transient transport errors, fail-fast while the shard's
// breaker cooldown runs, and no attempt at all once the request's budget
// is exhausted (a doomed round must not serialize K call timeouts).
func (r *rpcReader) call(shard int, req []byte) ([]byte, error) {
	st := r.req
	pool := r.pools[shard]
	if pool.isDown() {
		return nil, errShardDown
	}
	var b *budget.Tracker
	if st != nil {
		b = st.b
	}
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if reason := b.Check(); reason != "" {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, fmt.Errorf("budget exhausted (%s) before shard call", reason)
		}
		if attempt > 0 {
			rpcRetriesTotal.Inc()
			if st != nil {
				st.retries.Add(1)
			}
			time.Sleep(r.opts.RetryBackoff << (attempt - 1))
		}
		resp, err := r.attempt(shard, req)
		if err == nil {
			return resp, nil
		}
		var srv *errServer
		if errors.As(err, &srv) {
			// Deterministic server-side failure: retrying replays it.
			rpcErrorsTotal.Inc()
			return nil, err
		}
		lastErr = err
	}
	rpcErrorsTotal.Inc()
	pool.markDown(r.opts.DownCooldown)
	return nil, lastErr
}

// degrade records an unrecoverable read failure: the request's budget is
// tripped so the pipeline reports Answer.Degraded = "shard-unavailable",
// and the read returns empty. On an unbudgeted caller (nil tracker) the
// read still returns empty — degraded, never hung.
func (r *rpcReader) degrade() {
	if r.req != nil {
		r.req.errs.Add(1)
		r.req.b.FailShardUnavailable()
	}
}

// ------------------------------------------------------ the reader methods

// Read names one per-vertex read of a frozen graph — one of the reader
// primitives with its arguments — for Snapshot.Prefetch. It is also the
// read set's key and, through appendTo, the read's request payload.
type Read struct {
	op      byte
	v, p, o ID // arguments the op does not take stay zero
}

// ReadPred is the read behind OutPred(v, p) / OutPredDegree (out) or
// InPred(v, p) / InPredDegree (!out).
func ReadPred(v, p ID, out bool) Read {
	if out {
		return Read{op: shrOpOutPred, v: v, p: p}
	}
	return Read{op: shrOpInPred, v: v, p: p}
}

// ReadHas is the read behind Has(s, p, o).
func ReadHas(s, p, o ID) Read { return Read{op: shrOpHas, v: s, p: p, o: o} }

// ReadHasAdjacentPred is the read behind HasAdjacentPred(v, p).
func ReadHasAdjacentPred(v, p ID) Read { return Read{op: shrOpHasAdj, v: v, p: p} }

// readReply is a decoded reply: the span of a span-returning op, or the
// fixed bytes (1, or 8 for degrees) of the others.
type readReply struct {
	edges []Edge
	fixed [8]byte
}

// appendTo appends the read's request payload: the op byte and the IDs it
// takes.
func (k Read) appendTo(b []byte) []byte {
	b = appendID(append(b, k.op), k.v)
	switch k.op {
	case shrOpOutPred, shrOpInPred, shrOpHasAdj:
		b = appendID(b, k.p)
	case shrOpHas:
		b = appendID(appendID(b, k.p), k.o)
	}
	return b
}

// decode turns the body of an OK reply to k into its readReply; a body the
// op cannot have answered is an error.
func (k Read) decode(body []byte) (readReply, error) {
	var rep readReply
	switch k.op {
	case shrOpOut, shrOpIn, shrOpOutPred, shrOpInPred:
		if len(body)%8 != 0 {
			return rep, fmt.Errorf("span reply of %d bytes", len(body))
		}
		rep.edges = decodeFrzEdges(body)
	default:
		want := 1
		if k.op == shrOpDegrees {
			want = 8
		}
		if len(body) != want {
			return rep, fmt.Errorf("reply of %d bytes, want %d", len(body), want)
		}
		copy(rep.fixed[:], body)
	}
	return rep, nil
}

func appendID(b []byte, v ID) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// read answers one per-vertex read: from the request's read set when this
// request has made (or prefetched) it before, otherwise by one round trip
// to the shard owning k.v. Only a successful reply enters the set; a
// failed read degrades the request and answers empty, and the next ask
// goes to the wire again.
func (r *rpcReader) read(k Read) readReply {
	st := r.req
	if st != nil {
		st.reads.Add(1)
		rpcReadsTotal.Inc()
		if rep, ok := st.lookup(k); ok {
			st.readHits.Add(1)
			rpcReadHitsTotal.Inc()
			return rep
		}
	}
	var rep readReply
	body, err := r.call(int(k.v)%r.k, k.appendTo(make([]byte, 0, maxReadReq)))
	if err == nil {
		rep, err = k.decode(body)
	}
	if err != nil {
		r.degrade()
		return readReply{}
	}
	if st != nil {
		st.store(k, rep)
	}
	return rep
}

func (r *rpcReader) outSpan(v ID) []Edge    { return r.read(Read{op: shrOpOut, v: v}).edges }
func (r *rpcReader) inSpan(v ID) []Edge     { return r.read(Read{op: shrOpIn, v: v}).edges }
func (r *rpcReader) outPred(v, p ID) []Edge { return r.read(ReadPred(v, p, true)).edges }
func (r *rpcReader) inPred(v, p ID) []Edge  { return r.read(ReadPred(v, p, false)).edges }
func (r *rpcReader) role(v ID) uint8        { return r.read(Read{op: shrOpRole, v: v}).fixed[0] }

func (r *rpcReader) degrees(v ID) (out, in int) {
	f := r.read(Read{op: shrOpDegrees, v: v}).fixed
	return int(binary.LittleEndian.Uint32(f[:])), int(binary.LittleEndian.Uint32(f[4:]))
}

func (r *rpcReader) hasAdjacentPred(v, p ID) bool {
	return r.read(ReadHasAdjacentPred(v, p)).fixed[0] != 0
}

func (r *rpcReader) has(s, p, o ID) bool { return r.read(ReadHas(s, p, o)).fixed[0] != 0 }

// prefetch fetches the reads not yet in the request's read set, one batch
// frame per owning shard (a shard with more than maxBatchReads of them
// gets its frames one after another), all shards in flight together,
// through the same call path every read takes — budget deadline, retries,
// breaker. It is advisory: a frame that fails, or a sub-reply the server
// left unanswered, stores nothing and reports nothing, and the read that
// needed it takes the single-read path and degrades the request there if
// it must. So a prefetch changes how many frames carry an answer, never
// the answer or the way it fails.
func (r *rpcReader) prefetch(reads []Read) {
	st := r.req
	byShard := make([][]Read, r.k)
	var asked map[Read]struct{} // hints repeat reads; made on the first one to send
	st.mu.RLock()
	if st.held < readSetCap {
		for i, k := range reads {
			if _, have := st.set[k]; have {
				continue
			}
			if _, dup := asked[k]; dup {
				continue
			}
			if asked == nil {
				asked = make(map[Read]struct{}, len(reads)-i)
			}
			asked[k] = struct{}{}
			s := int(k.v) % r.k
			byShard[s] = append(byShard[s], k)
		}
	}
	st.mu.RUnlock()
	if asked == nil {
		return
	}

	fetch := func(shard int) {
		for rs := byShard[shard]; len(rs) > 0; {
			n := min(len(rs), maxBatchReads)
			if !r.fetchBatch(shard, rs[:n]) {
				return // the shard is failing; leave the rest to the reads themselves
			}
			rs = rs[n:]
		}
	}
	// The last shard with work runs on this goroutine, so a frontier that
	// lives on one shard starts none.
	var wg sync.WaitGroup
	last := -1
	for shard, rs := range byShard {
		if len(rs) == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				fetch(shard)
			}(last)
		}
		last = shard
	}
	if last >= 0 {
		fetch(last)
	}
	wg.Wait()
}

// fetchBatch sends one batch frame and stores its replies, and reports
// whether the shard answered it. The replies are stored only if the frame
// parses to exactly one well-formed sub-reply per read asked; within such
// a frame an unanswered sub-reply, or one carrying an error status, is
// skipped and left to the single read.
func (r *rpcReader) fetchBatch(shard int, reads []Read) bool {
	st := r.req
	req := make([]byte, 1, 1+len(reads)*(1+maxReadReq))
	req[0] = shrOpBatch
	for _, k := range reads {
		at := len(req)
		req = k.appendTo(append(req, 0))
		req[at] = byte(len(req) - at - 1)
	}
	st.batchReads.Add(int64(len(reads)))
	rpcBatchReadsTotal.Add(int64(len(reads)))
	body, err := r.call(shard, req)
	if err != nil {
		return false
	}
	replies := make([]readReply, len(reads))
	answered := make([]bool, len(reads))
	for i, k := range reads {
		if len(body) < 4 {
			return true
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(n) > uint64(len(body)) {
			return true
		}
		sub := body[:n]
		body = body[n:]
		if len(sub) == 0 || sub[0] != shrStatusOK {
			continue
		}
		if replies[i], err = k.decode(sub[1:]); err != nil {
			return true
		}
		answered[i] = true
	}
	if len(body) != 0 {
		return true
	}
	for i, k := range reads {
		if answered[i] {
			st.store(k, replies[i])
		}
	}
	return true
}

// predGroups is the over-the-wire scatter-gather of a predicate-major
// scan: every shard's (S,O)-sorted group for p is fetched concurrently. A
// failed leg degrades the request;
// the caller merges whatever arrived, so a doomed scan still terminates
// promptly with partial (budget-flagged) results.
func (r *rpcReader) predGroups(p ID) [][]Spo {
	var parent *obs.Span
	if r.req != nil {
		parent = r.req.sp
	}
	sp := parent.Child("rpc.gather")
	req := Read{op: shrOpPredGrp, v: p}.appendTo(nil)
	results := make([][]Spo, r.k)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < r.k; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			resp, err := r.call(shard, req)
			if err != nil {
				failed.Add(1)
				r.degrade()
				return
			}
			results[shard] = decodeFrzSpos(resp)
		}(i)
	}
	wg.Wait()
	groups := make([][]Spo, 0, r.k)
	for _, g := range results {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	if sp.Enabled() {
		sp.SetInt("shards", int64(r.k))
		sp.SetInt("failed", failed.Load())
	}
	sp.Finish()
	return groups
}
