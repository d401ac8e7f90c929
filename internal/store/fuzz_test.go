package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

// Fuzz targets for the on-disk format and the shard server's request
// handler. All assert the hostile-input contract: arbitrary bytes must
// produce either a loaded structure (or an answer frame) or an error —
// never a panic — and allocation must stay proportional to the input, so
// a lying length field cannot balloon memory. Accepted inputs must
// re-serialize byte-identically (the format is canonical).

// allocBound runs fn and fails the test if it allocated more than limit
// bytes. TotalAlloc is process-global, so this is meaningful only because
// fuzz executions run the body serially.
func allocBound(t *testing.T, limit uint64, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("allocated %d bytes, bound %d", got, limit)
	}
}

// frozenSeedCorpus is the one seed set behind both load targets, so a seed
// added for one entry point exercises the other: valid K=1 files and valid
// parts, truncations, a CRC-detected flip, a directory length lie behind a
// re-fixed header CRC, and checksum-consistent corruptions (a derived
// role bit, an offset, the meta section, a ragged section length) that only the
// semantic pass can catch.
func frozenSeedCorpus(tb testing.TB) [][]byte {
	rich := func() *Graph { return randomRichGraph(rand.New(rand.NewSource(1))) }
	whole := saveFrozenBytes(tb, tinyFrozenGraph())
	part := savePartBytes(tb, tinyFrozenGraph(), 2, 1)
	richPart := savePartBytes(tb, rich(), 3, 0)
	seeds := [][]byte{
		whole,
		saveFrozenBytes(tb, rich()),
		saveFrozenBytes(tb, New()),
		part,
		richPart,
		[]byte(frozenMagic),
		{},
	}
	for _, valid := range [][]byte{whole, richPart} {
		flip := append([]byte(nil), valid...)
		flip[frzHeaderSize+3] ^= 0x10 // payload bit → section CRC mismatch
		lie := append([]byte(nil), valid...)
		d := frzHeaderFixed + frzOutEdges*frzDirEntrySize
		binary.LittleEndian.PutUint64(lie[d:d+8], 1<<40) // length lie, header CRC re-fixed
		binary.LittleEndian.PutUint32(lie[frzHeaderSize-4:frzHeaderSize], crc32.ChecksumIEEE(lie[:frzHeaderSize-4]))
		consistent := func(sec, off int, xor byte) []byte {
			mut := append([]byte(nil), valid...)
			lo, _ := sectionRange(mut, sec)
			mut[lo+off] ^= xor
			refixChecksums(mut)
			return mut
		}
		// One byte more than the last section's elements fill, every
		// checksum re-fixed.
		ragged := append(append([]byte(nil), valid...), 0)
		d = frzHeaderFixed + frzEntities*frzDirEntrySize
		binary.LittleEndian.PutUint64(ragged[d:d+8], binary.LittleEndian.Uint64(ragged[d:d+8])+1)
		refixChecksums(ragged)
		seeds = append(seeds,
			valid[:frzHeaderSize],
			valid[:len(valid)-1],
			append(append([]byte(nil), valid...), 0xAB),
			flip,
			lie,
			consistent(frzRoles, 0, 0x10),  // derived state: the entity role
			consistent(frzOutOff, 4, 0x7f), // second out offset
			consistent(frzMeta, 0, 0x09),   // shard index ≥ k
			ragged,
		)
	}
	return seeds
}

func FuzzLoadFrozen(f *testing.F) {
	for _, s := range frozenSeedCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Graph
		var err error
		allocBound(t, 1<<22+1024*uint64(len(data)), func() {
			g, err = LoadFrozen(bytes.NewReader(data))
		})
		if err != nil {
			return
		}
		if g.Frozen() == nil {
			t.Fatal("accepted input did not install a snapshot")
		}
		// The format is canonical: anything that loads re-serializes to the
		// exact accepted bytes.
		var buf bytes.Buffer
		if err := SaveFrozen(&buf, g); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), buf.Len())
		}
	})
}

// FuzzLoadShardPart: arbitrary bytes either load into a part that
// re-serializes to the exact accepted bytes and is servable, or are
// rejected — never a panic, never an allocation a lying length field
// inflated.
func FuzzLoadShardPart(f *testing.F) {
	for _, s := range frozenSeedCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp *ShardPart
		var err error
		allocBound(t, 1<<22+1024*uint64(len(data)), func() {
			sp, err = LoadShardPart(bytes.NewReader(data))
		})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := sp.Save(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes out", len(data), buf.Len())
		}
		// Whatever loads must be servable: every read a coordinator could
		// send for any vertex stays in bounds.
		srv := NewShardServer(sp)
		for v := ID(0); int(v) <= sp.NumTerms(); v++ {
			for _, op := range []byte{shrOpOut, shrOpIn, shrOpDegrees, shrOpRole} {
				mustAnswer(t, srv, reqV(op, v))
			}
			mustAnswer(t, srv, reqVP(shrOpHasAdj, v, v))
			mustAnswer(t, srv, reqSPO(shrOpHas, v, v, v))
			mustAnswer(t, srv, reqV(shrOpPredGrp, v))
		}
	})
}

// reqV, reqVP and reqSPO build a request payload of one, two or three ID
// arguments under any op byte, valid for that op or not.
func reqV(op byte, v ID) []byte         { return appendID([]byte{op}, v) }
func reqVP(op byte, v, p ID) []byte     { return appendID(reqV(op, v), p) }
func reqSPO(op byte, s, p, o ID) []byte { return appendID(reqVP(op, s, p), o) }

// mustAnswer sends one request payload through the server's handler and
// fails on a severed connection, a malformed frame, or a handler panic
// (which handle recovers into an error frame — a bug all the same).
func mustAnswer(t *testing.T, srv *ShardServer, req []byte) []byte {
	t.Helper()
	resp, ok := srv.handle(req)
	if !ok || len(resp) == 0 || resp[0] > shrStatusErr {
		t.Fatalf("request %x: response %x, ok=%v", req, resp, ok)
	}
	if resp[0] == shrStatusErr && bytes.Contains(resp, []byte("panic")) {
		t.Fatalf("request %x: handler panicked: %s", req, resp[1:])
	}
	return resp
}

// FuzzShardServerHandle feeds arbitrary connection bytes through the
// framing layer into the request handler of a server holding a valid part:
// every frame the reader accepts must be answered with a well-formed OK or
// error frame, never a panic, whatever opcode, argument count or vertex ID
// it carries — and an accepted batch with what each of its reads is
// answered alone.
func FuzzShardServerHandle(f *testing.F) {
	g := randomRichGraph(rand.New(rand.NewSource(1)))
	g.SetShards(3)
	srv := NewShardServer(g.Freeze().Part(1))
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	owned, foreign, beyond := ID(4), ID(5), ID(g.NumTerms())
	for op := byte(0); op <= shrOpBatch+1; op++ {
		f.Add(frame([]byte{op}))
		for _, v := range []ID{owned, foreign, beyond, None} {
			f.Add(frame(reqV(op, v)))
			f.Add(frame(reqVP(op, v, owned)))
			f.Add(frame(reqSPO(op, v, owned, foreign)))
		}
	}
	f.Add(frame(nil))                                                           // empty request
	f.Add(append(frame(reqV(shrOpOut, owned)), frame(reqV(shrOpIn, owned))...)) // two frames back to back
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, shrOpPing})                            // length beyond the request cap
	f.Add(frame(reqV(shrOpOut, owned))[:6])                                     // truncated mid-payload

	// Batches. A valid one mixes every batchable op over owned, foreign,
	// out-of-range and None vertices; the rest break the envelope one way
	// each.
	var mixed [][]byte
	for _, v := range []ID{owned, foreign, beyond, None} {
		mixed = append(mixed,
			reqV(shrOpOut, v), reqV(shrOpIn, v), reqVP(shrOpOutPred, v, owned), reqVP(shrOpInPred, v, owned),
			reqV(shrOpDegrees, v), reqVP(shrOpHasAdj, v, owned), reqSPO(shrOpHas, v, owned, foreign), reqV(shrOpRole, v))
	}
	f.Add(frame(batchReq(mixed...)))
	f.Add(frame(batchReq(reqV(shrOpOut, owned), reqVP(shrOpOut, owned, owned))))              // a sub-read with a bad argument count
	f.Add(frame(batchReq(reqV(shrOpOut, owned), batchReq(reqV(shrOpIn, owned)))))             // nested batch
	f.Add(frame(batchReq(reqV(shrOpPredGrp, owned))))                                         // an op that is not a per-vertex read
	f.Add(frame(append(batchReq(reqV(shrOpOut, owned)), 0)))                                  // zero-length sub-request
	f.Add(frame(append(batchReq(reqV(shrOpOut, owned)), 9, shrOpIn, 4, 0)))                   // sub-length running past the frame
	f.Add(frame(batchReq(repeatReq(reqV(shrOpRole, owned), maxBatchReads)...)))               // a full batch
	f.Add(frame(batchReq(repeatReq(reqV(shrOpRole, owned), maxBatchReads+1)...)))             // 257 reads
	f.Add(frame(append(batchReq(repeatReq(reqSPO(shrOpHas, 4, 4, 4), maxBatchReads)...), 0))) // one byte over the request cap
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			req, err := readFrame(r, maxShardReqFrame)
			if err != nil {
				return // the connection would be dropped here
			}
			resp := mustAnswer(t, srv, req)
			if len(req) > 0 && req[0] == shrOpBatch && resp[0] == shrStatusOK {
				checkBatchReply(t, srv, req[1:], resp[1:])
			}
		}
	})
}

// batchReq frames sub-requests as one batch request payload.
func batchReq(subs ...[]byte) []byte {
	b := []byte{shrOpBatch}
	for _, sub := range subs {
		b = append(append(b, byte(len(sub))), sub...)
	}
	return b
}

func repeatReq(req []byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = req
	}
	return out
}

// checkBatchReply holds an accepted batch to its contract: one sub-reply
// per sub-request, in order, each either unanswered (empty) or exactly the
// payload the sub-request is answered with alone.
func checkBatchReply(t *testing.T, srv *ShardServer, subs, replies []byte) {
	t.Helper()
	for i := 0; len(subs) > 0; i++ {
		sub := subs[1 : 1+int(subs[0])]
		subs = subs[1+len(sub):]
		if len(replies) < 4 {
			t.Fatalf("batch: reply ends before sub-reply %d", i)
		}
		n := binary.LittleEndian.Uint32(replies)
		if uint64(n) > uint64(len(replies)-4) {
			t.Fatalf("batch: sub-reply %d runs past the reply", i)
		}
		got := replies[4 : 4+n]
		replies = replies[4+n:]
		if want := srv.answer(sub); len(got) != 0 && !bytes.Equal(got, want) {
			t.Fatalf("batch: sub-request %x answered %x, alone %x", sub, got, want)
		}
	}
	if len(replies) != 0 {
		t.Fatalf("batch: %d bytes after the last sub-reply", len(replies))
	}
}
