package store

// The shard RPC protocol: the wire boundary between a coordinator's
// rpcReader (remote.go) and a gqa-shard server holding one part of a K ≥ 2 export (frzsnap.go).
// The protocol is deliberately minimal — length-prefixed binary frames
// over TCP, one outstanding request per connection — because what it
// carries is the reader interface (view.go), one opcode per method: tiny
// fixed-size requests (an op byte plus at most two IDs) and responses
// that are raw little-endian dumps of the spans the in-process localParts
// reader returns, in the same order. Every data read is a span read; only
// the dial (meta and the two ID lists) is not. Identity of the served
// bytes is what keeps remote answers byte-identical to local ones.
//
// Framing: every message is [u32 length][payload], length = len(payload),
// little-endian. A request payload is [op byte][args]; a response payload
// is [status byte][body], status 0 = OK (body is the op's result
// encoding) and 1 = error (body is the error string). Requests are tiny
// by construction and capped at maxShardReqFrame, the size of a full
// batch; responses are capped at 1 GiB on the client. A server handler
// panic (bug, or the armed rpc.call faultpoint) is recovered into an error
// frame when possible, so one poisoned request does not take the shard
// down.
//
// A batch (shrOpBatch) is the one request that is not a single read: up
// to maxBatchReads per-vertex data reads, each [u8 length][the read's own
// request payload], answered by as many [u32 length][the payload that
// read would have been answered alone], in order. The server answers each
// sub-read by re-entering its own dispatch, so a batch carries no logic
// of its own and a batched reply is the single reply by construction.
// Past maxBatchReply bytes of reply the server stops reading and marks
// every remaining sub-reply unanswered (length 0 — an answered one always
// carries its status byte); the client reads those one at a time.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"gqa/internal/faultpoint"
)

// shardProtocol is the shard protocol's revision, the last four bytes of
// the meta reply. DialShards refuses a shard that speaks another, so that
// a fleet upgraded by halves fails at dial time, naming the shard, instead
// of degrading answers on the first read its server no longer answers.
// Bump it with any change to a request or a reply. A server from before
// revisions answers the meta without it: revision 0. Revision 2 retired
// op 11, the predicate group: a revision-1 coordinator would still send it.
const shardProtocol = 2

// Op codes. Order is wire contract; add new ops at the end only. A retired
// op keeps its number as a gap, so no other op's frames change, and a
// server answers it "unknown op": *Snapshot derives the four scalar reads
// 7–10 and the predicate group 11 once named from the spans.
const (
	shrOpPing     = iota + 1 // health probe; empty response
	shrOpMeta                // part identity + global facts (shardMeta encoding), then shardProtocol
	shrOpOut                 // v → full out span
	shrOpIn                  // v → full in span
	shrOpOutPred             // v, p → per-predicate out run
	shrOpInPred              // v, p → per-predicate in run
	_                        // 7 retired: degrees
	_                        // 8 retired: has-adjacent-predicate
	_                        // 9 retired: has
	_                        // 10 retired: role
	_                        // 11 retired: predicate group
	shrOpPredIDs             // → this shard's ascending predicate list
	shrOpEntities            // → this shard's ascending owned-entity list
	shrOpBatch               // up to maxBatchReads per-vertex reads (shrOpOut … shrOpInPred) → their replies
)

const (
	shrStatusOK  = 0
	shrStatusErr = 1

	// maxReadReq is the longest single data read: an op byte and two IDs.
	maxReadReq = 9
	// maxBatchReads caps the sub-reads of one batch; maxShardReqFrame is
	// the batch that cap and maxReadReq allow, and the largest request a
	// server reads at all.
	maxBatchReads     = 256
	maxShardReqFrame  = 1 + maxBatchReads*(1+maxReadReq)
	maxShardRespFrame = 1 << 30
	// maxBatchReply is the reply size past which a server leaves the rest
	// of a batch unanswered, so a frontier of wide spans cannot make one
	// frame unboundedly large.
	maxBatchReply = 1 << 20
)

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, rejecting lengths above limit.
func readFrame(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("frame length %d exceeds limit %d", n, limit)
	}
	return readGrowing(r, uint64(n))
}

// readGrowing reads n bytes into a buffer it grows 1 MiB at a time as the
// bytes arrive, so a length prefix that lies — a frame's or a file
// section's — costs what the peer sent, not what it claimed.
func readGrowing(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for at := uint64(0); at < n; at = uint64(len(buf)) {
		end := min(n, at+chunk)
		buf = slices.Grow(buf, int(end-at))[:end]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// errShardCut is the sentinel tests arm on the rpc.call faultpoint to make
// the server drop the connection after reading a request instead of
// answering it (the "mid-stream cut" failure mode).
var errShardCut = errors.New("faultpoint: cut connection")

// ShardServer serves one shard part over the shard RPC protocol. Safe for
// concurrent connections; every connection gets its own goroutine and
// handles one request at a time (the client pools connections for
// parallelism). Close stops the listener and closes every live
// connection.
type ShardServer struct {
	part *ShardPart
	rd   localParts // the served part at its shard's slot; every other slot nil

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShardServer wraps a loaded part for serving.
func NewShardServer(part *ShardPart) *ShardServer {
	rd := make(localParts, part.part.k)
	rd[part.part.shard] = part.part
	return &ShardServer{part: part, rd: rd, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error (net.ErrClosed after a clean Close).
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener, severs live connections, and waits for the
// connection goroutines to drain.
func (s *ShardServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

func (s *ShardServer) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *ShardServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	for {
		req, err := readFrame(conn, maxShardReqFrame)
		if err != nil {
			return
		}
		// The server-side injection point: a delay makes this shard a
		// straggler (client-visible timeout), errShardCut severs the
		// connection after the request was read (mid-stream cut), any
		// other error is reported as an error frame, and a panic message
		// exercises the handler-panic recovery below.
		resp, ok := s.handle(req)
		if !ok {
			return // injected cut: drop the connection without replying
		}
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// handle runs one request frame and returns the response payload. ok=false
// means the connection should be severed without a reply. It is the
// fault-injection and recovery wrapper around answer: the armed rpc.call
// faultpoint fires once per frame, and a panic anywhere below — in any
// sub-read of a batch — becomes this frame's error reply.
func (s *ShardServer) handle(req []byte) (resp []byte, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			resp, ok = shardErrResp(fmt.Sprintf("shard server panic: %v", r)), true
		}
	}()
	if err := faultpoint.HitErr(faultpoint.RPCCall); err != nil {
		if errors.Is(err, errShardCut) {
			return nil, false
		}
		return shardErrResp(err.Error()), true
	}
	return s.answer(req), true
}

// answer is the pure dispatch: one request payload in, its response
// payload out. A batch re-enters it once per sub-read.
func (s *ShardServer) answer(req []byte) []byte {
	if len(req) == 0 {
		return shardErrResp("empty request")
	}
	op, args := req[0], req[1:]
	if op == shrOpBatch {
		return s.answerBatch(args)
	}
	arg := func(i int) ID {
		return ID(binary.LittleEndian.Uint32(args[4*i:]))
	}
	need := func(n int) bool { return len(args) == 4*n }
	p, rd := s.part.part, s.rd
	out := []byte{shrStatusOK}
	switch op {
	case shrOpPing:
		return out
	case shrOpMeta:
		return binary.LittleEndian.AppendUint32(append(out, encodeShardMeta(&s.part.meta)...), shardProtocol)
	case shrOpOut:
		if !need(1) {
			return shardErrResp("out: want 1 arg")
		}
		return append(out, encodeFrzEdges(rd.outSpan(arg(0)))...)
	case shrOpIn:
		if !need(1) {
			return shardErrResp("in: want 1 arg")
		}
		return append(out, encodeFrzEdges(rd.inSpan(arg(0)))...)
	case shrOpOutPred:
		if !need(2) {
			return shardErrResp("outPred: want 2 args")
		}
		return append(out, encodeFrzEdges(rd.outPred(arg(0), arg(1)))...)
	case shrOpInPred:
		if !need(2) {
			return shardErrResp("inPred: want 2 args")
		}
		return append(out, encodeFrzEdges(rd.inPred(arg(0), arg(1)))...)
	case shrOpPredIDs:
		return append(out, encodeFrzU32s(p.predIDs)...)
	case shrOpEntities:
		return append(out, encodeFrzU32s(p.entities)...)
	default:
		return shardErrResp(fmt.Sprintf("unknown op %d", op))
	}
}

// answerBatch answers the sub-reads of one batch in order. The frame is
// refused whole — an error reply, nothing answered — when it is not a list
// of at most maxBatchReads well-delimited per-vertex data reads; a sub-read
// that is well delimited but wrong in itself (a bad argument count) gets
// the error reply it would have got alone.
func (s *ShardServer) answerBatch(subs []byte) []byte {
	out := []byte{shrStatusOK}
	for n := 0; len(subs) > 0; n++ {
		l := int(subs[0])
		switch {
		case n == maxBatchReads:
			return shardErrResp(fmt.Sprintf("batch: more than %d reads", maxBatchReads))
		case l == 0:
			return shardErrResp(fmt.Sprintf("batch: read %d is empty", n))
		case l > len(subs)-1:
			return shardErrResp(fmt.Sprintf("batch: read %d runs %d bytes past the frame", n, l-(len(subs)-1)))
		}
		sub := subs[1 : 1+l]
		subs = subs[1+l:]
		if op := sub[0]; op < shrOpOut || op > shrOpInPred {
			return shardErrResp(fmt.Sprintf("batch: read %d: op %d is not a per-vertex read", n, op))
		}
		if len(out) > maxBatchReply {
			out = binary.LittleEndian.AppendUint32(out, 0) // unanswered
			continue
		}
		r := s.answer(sub)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

func shardErrResp(msg string) []byte {
	return append([]byte{shrStatusErr}, msg...)
}
