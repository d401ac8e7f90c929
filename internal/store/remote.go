package store

// The coordinator side of multi-process sharding: the second reader. A
// Snapshot built by DialShards holds the global facts locally (term table,
// merged entity and predicate lists, stats) and routes every primitive
// read — one per method of the reader interface — over the shard RPC
// protocol (shardrpc.go) to the gqa-shard server owning the vertex, so the
// matcher's search, the SPARQL evaluator and the dict path walks run
// unchanged over the wire. Each server answers from the exact
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
	"slices"
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
	set  map[Read][]Edge
	held int
}

// readSetCap bounds a read set: entries plus held edges (8 bytes each).
const readSetCap = 1 << 20

func (st *rpcReq) lookup(k Read) ([]Edge, bool) {
	st.mu.RLock()
	span, ok := st.set[k]
	st.mu.RUnlock()
	return span, ok
}

func (st *rpcReq) store(k Read, span []Edge) {
	st.mu.Lock()
	if _, dup := st.set[k]; !dup && st.held < readSetCap {
		if st.set == nil {
			st.set = make(map[Read][]Edge)
		}
		st.set[k] = span
		st.held += 1 + len(span)
	}
	st.mu.Unlock()
}

// shardClient is the connection state shared by every reader over one set
// of shard servers; safe for concurrent use by many requests.
type shardClient struct {
	k      int
	nTerms ID // the frozen graph's term count: every ID a reply carries is below it
	opts   RemoteOptions
	pools  []*shardConnPool
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
// count, stats and rdf:type — and that it matches the coordinator's term
// table, then assembles the snapshot's global structures (merged entity and
// predicate lists) as a local freeze does, from lists that must be what a
// part's are (checkIDList). terms is the coordinator's interned term table;
// Term lookups are served from it locally (the dictionary never crosses the
// wire). Every refusal names the shard. Close the snapshot when done.
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
			return nil, fmt.Errorf("store: DialShards: shard %d disagrees with shard 0 on the frozen graph's generation, term or triple count, stats or rdf:type — parts from different exports?", i)
		}
		if int(m.nTerms) != len(terms) {
			return nil, fmt.Errorf("store: DialShards: shard %d froze %d terms, the coordinator holds %d — generation mismatch", i, m.nTerms, len(terms))
		}
	}
	r.nTerms = ID(m0.nTerms)
	// lists[0] holds each shard's entity list, lists[1] its predicate list.
	lists := [2][][]ID{make([][]ID, k), make([][]ID, k)}
	for i := 0; i < k; i++ {
		for j, op := range [2]byte{shrOpEntities, shrOpPredIDs} {
			resp, err := r.call(i, []byte{op})
			if err == nil {
				lists[j][i], err = decodeReply(i, op, resp, 4, decodeFrzU32s[ID])
			}
			if err == nil {
				err = r.checkIDList(i, op, lists[j][i])
			}
			if err != nil {
				return nil, fmt.Errorf("store: DialShards: shard %d %s: %w", i, [2]string{"entities", "predicates"}[j], err)
			}
		}
	}
	return &Snapshot{
		gen: m0.gen, k: k, terms: terms, rd: r,
		rdfType: ID(m0.rdfType), nTriples: int(m0.nTriples), stats: m0.stats,
		entities: mergeIDLists(lists[0]), predIDs: mergeIDLists(lists[1]),
	}, nil
}

// checkIDList checks shard's dial-time list of opcode op as a part's list
// is checked: every ID a term and the list strictly ascending, and an
// entity list only of vertices the shard owns (ID mod K). The error names
// the shard, the opcode and the entry.
func (r *rpcReader) checkIDList(shard int, op byte, ids []ID) error {
	for j, v := range ids {
		if v >= r.nTerms || (j > 0 && v <= ids[j-1]) || (op == shrOpEntities && int(v)%r.k != shard) {
			return fmt.Errorf("shard %d, opcode %d: entry %d (ID %d of %d terms) is out of range, out of order or, in an entity list, another shard's", shard, op, j, v, r.nTerms)
		}
	}
	return nil
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

// Read names one per-vertex read of a frozen graph — one of the reader's
// span reads with its arguments — for Snapshot.Prefetch. It is also the
// read set's key and, through appendTo, the read's request payload.
type Read struct {
	op   byte
	v, p ID // p stays zero on a full span read
}

// ReadPred is the read behind OutPred(v, p) / OutPredDegree (out) or
// InPred(v, p) / InPredDegree (!out); HasAdjacentPred(v, p) reads both.
func ReadPred(v, p ID, out bool) Read {
	if out {
		return Read{op: shrOpOutPred, v: v, p: p}
	}
	return Read{op: shrOpInPred, v: v, p: p}
}

// ReadOut is the read behind v's full out span: OutDegree(v), and
// Has(v, p, o) for every p and o.
func ReadOut(v ID) Read { return Read{op: shrOpOut, v: v} }

// appendTo appends the read's request payload: the op byte and the IDs it
// takes.
func (k Read) appendTo(b []byte) []byte {
	b = appendID(append(b, k.op), k.v)
	if k.op == shrOpOutPred || k.op == shrOpInPred {
		b = appendID(b, k.p)
	}
	return b
}

// decodeReply decodes the body of shard's OK reply to opcode op, size-byte
// records. A body that is not a whole number of records is a broken reply,
// not one to truncate: the error names the shard, the opcode and the
// byte length.
func decodeReply[T any](shard int, op byte, body []byte, size int, decode func([]byte) []T) ([]T, error) {
	if len(body)%size != 0 {
		return nil, fmt.Errorf("shard %d, opcode %d: reply of %d bytes is not a whole number of %d-byte records", shard, op, len(body), size)
	}
	return decode(body), nil
}

// decodeSpan decodes shard's OK reply to span read k and checks it as a
// file's span is checked (checkSpan); a per-predicate run must also carry
// only the predicate asked for. A reply that fails is a failed call, and
// its error names the shard, the opcode, the vertex and the entry.
func (r *rpcReader) decodeSpan(shard int, k Read, body []byte) ([]Edge, error) {
	span, err := decodeReply(shard, k.op, body, 8, decodeFrzEdges)
	if err != nil {
		return nil, err
	}
	j, why := checkSpan(span, r.nTerms)
	if j < 0 && (k.op == shrOpOutPred || k.op == shrOpInPred) {
		if j = slices.IndexFunc(span, func(e Edge) bool { return e.Pred != k.p }); j >= 0 {
			why = fmt.Sprintf("is not of predicate %d", k.p)
		}
	}
	if j >= 0 {
		return nil, fmt.Errorf("shard %d, opcode %d, vertex %d: entry %d %s", shard, k.op, k.v, j, why)
	}
	return span, nil
}

// fetchGroup reads shard's group of predicate p as one call and checks the
// reply: each triple's subject and object are terms, its predicate is p (a
// term), its subject is one the shard owns, and the triples are strictly
// (S, O)-sorted, as mergeSpoGroups needs. A broken reply is a failed call
// whose error names the shard, the opcode, the predicate and the entry.
func (r *rpcReader) fetchGroup(shard int, p ID) ([]Spo, error) {
	body, err := r.call(shard, Read{op: shrOpPredGrp, v: p}.appendTo(nil))
	if err != nil {
		return nil, err
	}
	group, err := decodeReply(shard, shrOpPredGrp, body, 12, decodeFrzSpos) // nil on a ragged reply
	for j, t := range group {
		why := ""
		switch {
		case t.S >= r.nTerms || t.O >= r.nTerms:
			why = fmt.Sprintf("references a term out of range (%d terms)", r.nTerms)
		case t.P != p:
			why = "is of another predicate"
		case int(t.S)%r.k != shard:
			why = "has a subject the shard does not own"
		case j > 0 && (t.S < group[j-1].S || (t.S == group[j-1].S && t.O <= group[j-1].O)):
			why = "breaks the strict (S,O) order"
		default:
			continue
		}
		return nil, fmt.Errorf("shard %d, opcode %d, predicate %d: entry %d %s", shard, shrOpPredGrp, p, j, why)
	}
	return group, err
}

func appendID(b []byte, v ID) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// read answers one per-vertex read: from the request's read set when this
// request has made (or prefetched) it before, otherwise by one round trip
// to the shard owning k.v (fetch). Only a sound reply enters the set; a
// failed read degrades the request and answers empty, and the next ask
// goes to the wire again.
func (r *rpcReader) read(k Read) []Edge {
	st := r.req
	if st != nil {
		st.reads.Add(1)
		rpcReadsTotal.Inc()
		if span, ok := st.lookup(k); ok {
			st.readHits.Add(1)
			rpcReadHitsTotal.Inc()
			return span
		}
	}
	span, err := r.fetch(k)
	if err != nil {
		r.degrade()
		return nil
	}
	if st != nil {
		st.store(k, span)
	}
	return span
}

// fetch makes read k as one call to the shard owning k.v.
func (r *rpcReader) fetch(k Read) ([]Edge, error) {
	shard := int(k.v) % r.k
	body, err := r.call(shard, k.appendTo(make([]byte, 0, maxReadReq)))
	if err != nil {
		return nil, err
	}
	return r.decodeSpan(shard, k, body)
}

func (r *rpcReader) outSpan(v ID) []Edge    { return r.read(ReadOut(v)) }
func (r *rpcReader) inSpan(v ID) []Edge     { return r.read(Read{op: shrOpIn, v: v}) }
func (r *rpcReader) outPred(v, p ID) []Edge { return r.read(ReadPred(v, p, true)) }
func (r *rpcReader) inPred(v, p ID) []Edge  { return r.read(ReadPred(v, p, false)) }

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
	replies := make([][]Edge, len(reads))
	answered := make([]bool, len(reads))
	for i := range reads {
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
		if replies[i], err = r.decodeSpan(shard, reads[i], sub[1:]); err != nil {
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
// scan: every shard's (S,O)-sorted group for p is fetched concurrently,
// and each reply is checked (fetchGroup). A failed leg — a failed call or
// a broken reply, which is not retried — degrades the request; the caller
// merges whatever arrived, so a doomed scan still terminates promptly with
// partial (budget-flagged) results.
func (r *rpcReader) predGroups(p ID) [][]Spo {
	var parent *obs.Span
	if r.req != nil {
		parent = r.req.sp
	}
	sp := parent.Child("rpc.gather")
	results := make([][]Spo, r.k)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < r.k; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			group, err := r.fetchGroup(shard, p)
			if err != nil {
				failed.Add(1)
				r.degrade()
			}
			results[shard] = group
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
