package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// Fuzz targets for the on-disk formats and the shard server's request
// handler. All assert the hostile-input contract: arbitrary bytes must
// produce either a loaded structure (or an answer frame) or an error —
// never a panic — and allocation must stay proportional to the input, so
// a lying length field cannot balloon memory. Accepted inputs must
// round-trip: a graph that loads re-serializes and re-loads equivalently
// (byte-identically for the canonical GQAFRZ1 format).

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

func snapshotSeedCorpus(tb testing.TB) [][]byte {
	g := tinyFrozenGraph()
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	oversized := append([]byte("GQASNAP1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	badKind := append([]byte(nil), valid...)
	badKind[9] = 0x7E // first term's kind byte
	seeds := [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:9],
		[]byte("GQASNAP1"),
		oversized,
		badKind,
		append(append([]byte(nil), valid...), 0xAB), // trailing garbage
		{},
	}
	return seeds
}

func FuzzLoadSnapshot(f *testing.F) {
	for _, s := range snapshotSeedCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Graph
		var err error
		allocBound(t, 1<<22+1024*uint64(len(data)), func() {
			g, err = LoadSnapshot(bytes.NewReader(data))
		})
		if err != nil {
			return
		}
		// Accepted input: the graph must re-serialize and re-load to the
		// same shape and triple set (byte identity is not guaranteed —
		// GQASNAP1 varints admit non-minimal encodings on input).
		var buf bytes.Buffer
		if err := g.Snapshot(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		g2, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if g2.NumTerms() != g.NumTerms() || g2.NumTriples() != g.NumTriples() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g2.NumTerms(), g2.NumTriples(), g.NumTerms(), g.NumTriples())
		}
		g.Match(Any, Any, Any, func(spo Spo) bool {
			if !g2.Has(spo.S, spo.P, spo.O) {
				t.Fatalf("round trip lost triple %v", spo)
			}
			return true
		})
	})
}

func frozenSeedCorpus(tb testing.TB) [][]byte {
	var buf bytes.Buffer
	if err := SaveFrozen(&buf, tinyFrozenGraph()); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	var rich bytes.Buffer
	if err := SaveFrozen(&rich, randomRichGraph(rand.New(rand.NewSource(1)))); err != nil {
		tb.Fatal(err)
	}
	var empty bytes.Buffer
	if err := SaveFrozen(&empty, New()); err != nil {
		tb.Fatal(err)
	}
	flip := append([]byte(nil), valid...)
	flip[frzHeaderSize+3] ^= 0x10 // payload bit → section CRC mismatch
	lie := append([]byte(nil), valid...)
	d := frzHeaderFixed + frzOutEdges*frzDirEntrySize
	binary.LittleEndian.PutUint64(lie[d:d+8], 1<<40) // length lie, header CRC re-fixed
	binary.LittleEndian.PutUint32(lie[frzHeaderSize-4:frzHeaderSize], crc32.ChecksumIEEE(lie[:frzHeaderSize-4]))
	consistent := append([]byte(nil), valid...)
	lo, _ := frzSectionRange(consistent, frzSig)
	consistent[lo] ^= 0x01 // derived-state corruption with all checksums re-fixed
	refixFrozenChecksums(consistent)
	return [][]byte{
		valid,
		rich.Bytes(),
		empty.Bytes(),
		valid[:frzHeaderSize],
		valid[:len(valid)-1],
		flip,
		lie,
		consistent,
		[]byte(frozenMagic),
		{},
	}
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
		// GQAFRZ1 is canonical: anything that loads re-serializes to the
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

// shardPartSeedCorpus is the GQASHR1 corruption matrix: valid parts, every
// kind of truncation, a CRC-detected flip, a directory length lie behind a
// re-fixed header CRC, and checksum-consistent corruptions of an offset
// array and the meta section that only the semantic pass can catch.
func shardPartSeedCorpus(tb testing.TB) [][]byte {
	save := func(g *Graph, k, shard int) []byte {
		g.SetShards(k)
		var buf bytes.Buffer
		if err := SaveShardPart(&buf, g, shard); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := save(tinyFrozenGraph(), 2, 1)
	rich := save(randomRichGraph(rand.New(rand.NewSource(1))), 3, 0)
	flip := append([]byte(nil), valid...)
	flip[shrHeaderSize+3] ^= 0x10
	lie := append([]byte(nil), valid...)
	d := shrHeaderFixed + shrOutEdges*shrDirEntrySize
	binary.LittleEndian.PutUint64(lie[d:d+8], 1<<40)
	binary.LittleEndian.PutUint32(lie[shrHeaderSize-4:shrHeaderSize], crc32.ChecksumIEEE(lie[:shrHeaderSize-4]))
	badOff := append([]byte(nil), rich...)
	lo, _ := sectionRange(badOff, shrHeaderFixed, shrSectionCount, shrOutOff)
	badOff[lo+4] ^= 0x7f // second out offset
	refixChecksums(badOff, shrHeaderFixed, shrSectionCount)
	badMeta := append([]byte(nil), rich...)
	lo, _ = sectionRange(badMeta, shrHeaderFixed, shrSectionCount, shrMeta)
	badMeta[lo] = 0x09 // shard index ≥ k
	refixChecksums(badMeta, shrHeaderFixed, shrSectionCount)
	return [][]byte{
		valid,
		rich,
		valid[:shrHeaderSize],
		valid[:len(valid)-1],
		append(append([]byte(nil), valid...), 0xAB),
		flip,
		lie,
		badOff,
		badMeta,
		[]byte(shardMagic),
		{},
	}
}

// FuzzLoadShardPart: arbitrary bytes either load into a part that
// re-serializes to an equal part, or are rejected — never a panic, never
// an allocation a lying length field inflated.
func FuzzLoadShardPart(f *testing.F) {
	for _, s := range shardPartSeedCorpus(f) {
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
		sp2, err := LoadShardPart(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatal("round trip changed the part")
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

// mustAnswer sends one request payload through the server's handler and
// fails on a severed connection, a malformed frame, or a handler panic
// (which handle recovers into an error frame — a bug all the same).
func mustAnswer(t *testing.T, srv *ShardServer, req []byte) {
	t.Helper()
	resp, ok := srv.handle(req)
	if !ok || len(resp) == 0 || resp[0] > shrStatusErr {
		t.Fatalf("request %x: response %x, ok=%v", req, resp, ok)
	}
	if resp[0] == shrStatusErr && bytes.Contains(resp, []byte("panic")) {
		t.Fatalf("request %x: handler panicked: %s", req, resp[1:])
	}
}

// FuzzShardServerHandle feeds arbitrary connection bytes through the
// framing layer into the request handler of a server holding a valid part:
// every frame the reader accepts must be answered with a well-formed OK or
// error frame, never a panic, whatever opcode, argument count or vertex ID
// it carries.
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
	for op := byte(0); op <= shrOpEntities+1; op++ {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			req, err := readFrame(r, maxShardReqFrame)
			if err != nil {
				return // the connection would be dropped here
			}
			mustAnswer(t, srv, req)
		}
	})
}
