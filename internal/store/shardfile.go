package store

// GQASHR1: the per-shard frozen snapshot format behind the multi-process
// sharding layer. One file holds exactly one part of a K > 1 Snapshot —
// the local CSRs, boundary index, signatures, roles, and owned-entity
// list that `cmd/gqa-shard` serves over the shard RPC protocol (see
// shardrpc.go) — plus the assembly-time global metadata (generation,
// term/triple counts, Table-4 stats) the coordinator needs to validate
// that K part files describe the same frozen graph it holds.
//
// The layout reuses the GQAFRZ1 machinery wholesale: magic line, version,
// section count, FNV-64a content hash over the section directory,
// per-section {length, CRC32} directory, header CRC32, then the payloads
// in fixed order with trailing bytes rejected. It is a distinct magic —
// not a GQAFRZ1 variant — because a shard part deliberately violates the
// monolithic loader's semantic contract: its in-edges reference remote
// vertices no out-edge in the file covers, so the out/in/pred bijection
// check that GQAFRZ1 validation is built on cannot apply. The part
// loader runs its own validation pass (offset monotonicity, sorted
// spans, ownership of every local structure) instead.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	shardMagic   = "GQASHR1\n"
	shardVersion = 1
)

// Section indexes; order is part of the format.
const (
	shrMeta = iota
	shrOutOff
	shrOutEdges
	shrInOff
	shrInEdges
	shrPredIDs
	shrPredOff
	shrPredTriples
	shrBoundary
	shrSig
	shrRoles
	shrEntities
	shrSectionCount
)

var shrSectionNames = [shrSectionCount]string{
	"meta", "outOff", "outEdges", "inOff", "inEdges",
	"predIDs", "predOff", "predTriples", "boundary", "sig", "roles", "entities",
}

const (
	shrHeaderFixed  = 24 // magic + version + section count + content hash
	shrDirEntrySize = 12 // length uint64 + CRC32 uint32
	shrHeaderSize   = shrHeaderFixed + shrSectionCount*shrDirEntrySize + 4
	shrMetaSize     = 92
)

// shardMeta is the fixed-size meta section: the part's identity within
// its snapshot and the assembly-time global facts every part of one
// export must agree on.
type shardMeta struct {
	shard    uint32
	k        uint32
	gen      uint64 // global mutation generation at export
	shardGen uint64 // this shard's generation at build
	nTerms   uint64 // global term count
	nTriples uint64 // global triple count
	rdfType  uint32 // interned rdf:type ID (None when absent)
	literals uint64 // owned literal terms (this shard)
	stats    Stats  // global Table-4 stats at export
}

// ShardPart is one loaded (or exported) part of a sharded Snapshot: the
// unit gqa-shard serves. Obtain one from LoadShardPart or Snapshot.Part.
type ShardPart struct {
	part *shardPart
	meta shardMeta
}

// Shard returns this part's shard index; K its set's shard count.
func (sp *ShardPart) Shard() int { return int(sp.meta.shard) }

// K returns the shard count of the set this part belongs to.
func (sp *ShardPart) K() int { return int(sp.meta.k) }

// Generation returns the global mutation generation the part was
// exported at.
func (sp *ShardPart) Generation() uint64 { return sp.meta.gen }

// NumTerms returns the global term count at export time.
func (sp *ShardPart) NumTerms() int { return int(sp.meta.nTerms) }

// Part wraps local part i of the snapshot for serving or export — the
// in-process handle the loopback tests and SaveShardPart build from.
func (sn *Snapshot) Part(i int) *ShardPart {
	p := sn.parts[i]
	return &ShardPart{
		part: p,
		meta: shardMeta{
			shard:    uint32(i),
			k:        uint32(sn.k),
			gen:      sn.gen,
			shardGen: p.gen,
			nTerms:   uint64(len(sn.terms)),
			nTriples: uint64(sn.nTriples),
			rdfType:  uint32(sn.rdfType),
			literals: uint64(p.literals),
			stats:    sn.stats,
		},
	}
}

// SaveShardPart freezes the sharded graph (a pointer load when already
// frozen) and writes part `shard` of its snapshot in GQASHR1 format. The
// graph must be sharded (SetShards(k>1)) and shard must be in [0, k).
func SaveShardPart(w io.Writer, g *Graph, shard int) error {
	sn := g.Freeze()
	if sn.k <= 1 {
		return fmt.Errorf("store: shard part export needs a sharded graph (SetShards), have %d shards", g.NumShards())
	}
	if shard < 0 || shard >= sn.k {
		return fmt.Errorf("store: shard part export: shard %d out of range [0,%d)", shard, sn.k)
	}
	return sn.Part(shard).Save(w)
}

// Save writes the part in GQASHR1 format.
func (sp *ShardPart) Save(w io.Writer) error {
	secs := encodeShardSections(sp)
	var dir []byte
	for _, s := range secs {
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(s)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(s))
	}
	hdr := make([]byte, 0, shrHeaderSize)
	hdr = append(hdr, shardMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, shardVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, shrSectionCount)
	hdr = binary.LittleEndian.AppendUint64(hdr, frzContentHash(dir))
	hdr = append(hdr, dir...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("store: writing shard part header: %w", err)
	}
	for i, s := range secs {
		if _, err := bw.Write(s); err != nil {
			return fmt.Errorf("store: writing shard part section %s: %w", shrSectionNames[i], err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing shard part: %w", err)
	}
	return nil
}

func encodeShardSections(sp *ShardPart) [shrSectionCount][]byte {
	var secs [shrSectionCount][]byte
	p := sp.part
	secs[shrMeta] = encodeShardMeta(&sp.meta)
	secs[shrOutOff] = encodeFrzU32s(p.outOff)
	secs[shrOutEdges] = encodeFrzEdges(p.outEdges)
	secs[shrInOff] = encodeFrzU32s(p.inOff)
	secs[shrInEdges] = encodeFrzEdges(p.inEdges)
	secs[shrPredIDs] = encodeFrzIDs(p.predIDs)
	secs[shrPredOff] = encodeFrzU32s(p.predOff)
	secs[shrPredTriples] = encodeFrzSpos(p.predTriples)
	secs[shrBoundary] = encodeShardBoundary(p.boundary)
	secs[shrSig] = encodeFrzSigs(p.sig)
	secs[shrRoles] = append([]byte(nil), p.roles...)
	secs[shrEntities] = encodeFrzIDs(p.entities)
	return secs
}

func encodeShardBoundary(v []BoundaryEdge) []byte {
	b := make([]byte, 0, 16*len(v))
	for _, e := range v {
		b = binary.LittleEndian.AppendUint32(b, e.Local)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Pred))
		b = binary.LittleEndian.AppendUint32(b, e.Remote)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.To))
	}
	return b
}

func decodeShardBoundary(b []byte) []BoundaryEdge {
	out := make([]BoundaryEdge, len(b)/16)
	for i := range out {
		out[i] = BoundaryEdge{
			Local:  binary.LittleEndian.Uint32(b[16*i:]),
			Pred:   ID(binary.LittleEndian.Uint32(b[16*i+4:])),
			Remote: binary.LittleEndian.Uint32(b[16*i+8:]),
			To:     ID(binary.LittleEndian.Uint32(b[16*i+12:])),
		}
	}
	return out
}

// LoadShardPart reads, checksums, and validates one GQASHR1 shard part.
// Corrupt, truncated, or internally inconsistent input is rejected with
// an error naming the failing section; trailing bytes after the last
// section are an error too.
func LoadShardPart(r io.Reader) (*ShardPart, error) {
	fail := func(format string, args ...any) (*ShardPart, error) {
		return nil, fmt.Errorf("store: shard part: "+format, args...)
	}
	cr := &countingReader{r: r}
	hdr := make([]byte, shrHeaderSize)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return fail("reading header: %w", err)
	}
	if string(hdr[:len(shardMagic)]) != shardMagic {
		return fail("bad magic %q", hdr[:len(shardMagic)])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != shardVersion {
		return fail("unsupported version %d", v)
	}
	if n := binary.LittleEndian.Uint32(hdr[12:]); n != shrSectionCount {
		return fail("section count %d, want %d", n, shrSectionCount)
	}
	contentHash := binary.LittleEndian.Uint64(hdr[16:])
	crcOff := shrHeaderSize - 4
	if got, want := crc32.ChecksumIEEE(hdr[:crcOff]), binary.LittleEndian.Uint32(hdr[crcOff:]); got != want {
		return fail("header CRC mismatch (got %08x, want %08x)", got, want)
	}
	if got := frzContentHash(hdr[shrHeaderFixed:crcOff]); got != contentHash {
		return fail("content hash mismatch")
	}

	var lengths [shrSectionCount]uint64
	var crcs [shrSectionCount]uint32
	for i := 0; i < shrSectionCount; i++ {
		off := shrHeaderFixed + i*shrDirEntrySize
		lengths[i] = binary.LittleEndian.Uint64(hdr[off:])
		crcs[i] = binary.LittleEndian.Uint32(hdr[off+8:])
	}
	var secs [shrSectionCount][]byte
	for i := 0; i < shrSectionCount; i++ {
		b, err := readFrozenSection(cr, shrSectionNames[i], lengths[i])
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(b); got != crcs[i] {
			return fail("section %s CRC mismatch (got %08x, want %08x)", shrSectionNames[i], got, crcs[i])
		}
		secs[i] = b
	}
	var tail [1]byte
	if n, _ := cr.Read(tail[:]); n != 0 {
		return fail("trailing bytes after last section")
	}

	m, err := decodeShardMeta(secs[shrMeta])
	if err != nil {
		return fail("meta section: %w", err)
	}
	if m.k < 2 {
		return fail("shard count %d, want >= 2", m.k)
	}
	if m.shard >= m.k {
		return fail("shard index %d out of range [0,%d)", m.shard, m.k)
	}
	if m.nTerms > maxFrozenTerms {
		return fail("implausible term count %d", m.nTerms)
	}
	shard, k, n := int(m.shard), int(m.k), int(m.nTerms)
	nLocal := localCount(n, shard, k)

	p := &shardPart{
		gen:         m.shardGen,
		shard:       shard,
		k:           k,
		nTerms:      n,
		outOff:      decodeFrzU32s(secs[shrOutOff]),
		outEdges:    decodeFrzEdges(secs[shrOutEdges]),
		inOff:       decodeFrzU32s(secs[shrInOff]),
		inEdges:     decodeFrzEdges(secs[shrInEdges]),
		predIDs:     decodeFrzIDs(secs[shrPredIDs]),
		predOff:     decodeFrzU32s(secs[shrPredOff]),
		predTriples: decodeFrzSpos(secs[shrPredTriples]),
		boundary:    decodeShardBoundary(secs[shrBoundary]),
		sig:         decodeFrzSigs(secs[shrSig]),
		roles:       append([]uint8(nil), secs[shrRoles]...),
		entities:    decodeFrzIDs(secs[shrEntities]),
		literals:    int(m.literals),
	}
	if err := validateShardPart(p, nLocal); err != nil {
		return nil, fmt.Errorf("store: shard part: %w", err)
	}
	p.bytes = p.arrayBytes()
	return &ShardPart{part: p, meta: m}, nil
}

// validateShardPart is the semantic pass over a decoded part: every local
// structure must be exactly the shape buildShardPart produces, so a
// corrupted-but-CRC-colliding or maliciously crafted file cannot push the
// server into out-of-range panics or unsorted spans that would silently
// break the coordinator's merge order.
func validateShardPart(p *shardPart, nLocal int) error {
	if len(p.outOff) != nLocal+1 || len(p.inOff) != nLocal+1 {
		// An empty shard legitimately encodes offsets [0]; normalize.
		if nLocal == 0 && len(p.outOff) <= 1 && len(p.inOff) <= 1 {
			p.outOff = []uint32{0}
			p.inOff = []uint32{0}
		} else {
			return fmt.Errorf("offset arrays are %d/%d entries, want %d", len(p.outOff), len(p.inOff), nLocal+1)
		}
	}
	if len(p.sig) != nLocal || len(p.roles) != nLocal {
		return fmt.Errorf("sig/roles are %d/%d entries, want %d", len(p.sig), len(p.roles), nLocal)
	}
	checkCSR := func(name string, off []uint32, edges []Edge) error {
		if off[0] != 0 || off[len(off)-1] != uint32(len(edges)) {
			return fmt.Errorf("%s offsets do not cover the edge array", name)
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] || off[i] > uint32(len(edges)) {
				return fmt.Errorf("%s offsets not monotone within the edge array at %d", name, i)
			}
			span := edges[off[i-1]:off[i]]
			for j := 1; j < len(span); j++ {
				if span[j].Pred < span[j-1].Pred ||
					(span[j].Pred == span[j-1].Pred && span[j].To <= span[j-1].To) {
					return fmt.Errorf("%s span %d not strictly (Pred,To)-sorted", name, i-1)
				}
			}
		}
		nT := uint64(p.nTerms)
		for _, e := range edges {
			if uint64(e.Pred) >= nT || uint64(e.To) >= nT {
				return fmt.Errorf("%s edge references term beyond nTerms", name)
			}
		}
		return nil
	}
	if err := checkCSR("out", p.outOff, p.outEdges); err != nil {
		return err
	}
	if err := checkCSR("in", p.inOff, p.inEdges); err != nil {
		return err
	}
	// Predicate-major CSR: ascending predicate list, monotone offsets
	// covering the triple array, groups (S,O)-sorted with owned subjects.
	if len(p.predOff) != len(p.predIDs)+1 {
		if len(p.predIDs) == 0 && len(p.predOff) <= 1 {
			p.predOff = []uint32{0}
		} else {
			return fmt.Errorf("predOff has %d entries for %d predicates", len(p.predOff), len(p.predIDs))
		}
	}
	if p.predOff[0] != 0 || p.predOff[len(p.predOff)-1] != uint32(len(p.predTriples)) {
		return fmt.Errorf("predOff does not cover predTriples")
	}
	for i := 1; i < len(p.predIDs); i++ {
		if p.predIDs[i] <= p.predIDs[i-1] {
			return fmt.Errorf("predIDs not strictly ascending at %d", i)
		}
	}
	for i := 0; i < len(p.predIDs); i++ {
		if p.predOff[i+1] < p.predOff[i] || p.predOff[i+1] > uint32(len(p.predTriples)) {
			return fmt.Errorf("predOff not monotone within predTriples at %d", i)
		}
		group := p.predTriples[p.predOff[i]:p.predOff[i+1]]
		for j, t := range group {
			if t.P != p.predIDs[i] {
				return fmt.Errorf("predicate group %d holds foreign predicate", i)
			}
			if int(t.S)%p.k != p.shard {
				return fmt.Errorf("predicate group %d holds unowned subject %d", i, t.S)
			}
			if j > 0 && (t.S < group[j-1].S || (t.S == group[j-1].S && t.O <= group[j-1].O)) {
				return fmt.Errorf("predicate group %d not strictly (S,O)-sorted", i)
			}
		}
	}
	// Boundary index: sorted (Local, Pred, To), every entry cross-shard
	// with the precomputed remote residue.
	for i, e := range p.boundary {
		if int(e.Local) >= nLocal {
			return fmt.Errorf("boundary entry %d has local index beyond shard size", i)
		}
		if rs := int(e.To) % p.k; rs == p.shard || rs != int(e.Remote) {
			return fmt.Errorf("boundary entry %d has wrong remote residue", i)
		}
		if i > 0 {
			a, b := p.boundary[i-1], e
			if b.Local < a.Local ||
				(b.Local == a.Local && (b.Pred < a.Pred || (b.Pred == a.Pred && b.To <= a.To))) {
				return fmt.Errorf("boundary not strictly (Local,Pred,To)-sorted at %d", i)
			}
		}
	}
	// Entities: ascending global IDs owned by this shard.
	for i, id := range p.entities {
		if int(id)%p.k != p.shard {
			return fmt.Errorf("entity %d not owned by shard %d", id, p.shard)
		}
		if int(id)/p.k >= nLocal {
			return fmt.Errorf("entity %d beyond shard size", id)
		}
		if i > 0 && id <= p.entities[i-1] {
			return fmt.Errorf("entities not strictly ascending at %d", i)
		}
	}
	return nil
}
