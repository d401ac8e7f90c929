package store

// GQAFRZ1: the one on-disk format. A file is part s of K of a frozen graph
// (shard.go): the part's flat CSR arrays, role bitmap and owned-entity
// list, dumped in their in-memory layout so a load is a bulk read instead
// of a rebuild. A whole graph is the K = 1 case and is the only one that
// carries the term dictionary (SaveFrozen / LoadFrozen, whose graph is
// the loaded snapshot and holds no second copy); a part of a K ≥ 2 export
// (SaveShardPart / LoadShardPart) is what gqa-shard serves, and its
// coordinator owns the dictionary.
//
// Layout (all integers little-endian, fixed width — the format is
// canonical: a file that loads re-serializes byte-identically):
//
//	magic "GQAFRZ1\n" (8 bytes)
//	version   uint32
//	sections  uint32 (always frzSectionCount)
//	content hash uint64 (FNV-64a over the section directory below — a
//	digest of the per-section lengths and CRC32s, so it identifies the
//	payload content without a second pass over the payload bytes)
//	directory: per section, in fixed order: length uint64, CRC32 uint32
//	header CRC32 uint32 (over everything above)
//	section payloads, in directory order
//	EOF (trailing bytes are rejected)
//
// Sections, in order: meta, terms, outOff, outEdges, inOff, inEdges,
// predIDs, roles, entities. meta is the 92-byte shardMeta encoding the
// shard RPC's meta reply also uses; terms is a uint32 count followed by
// records (kind byte, then value/datatype/lang each as uint32 length +
// bytes) when K = 1 and empty otherwise; the rest are raw element dumps
// whose lengths are cross-checked against the term, triple and
// owned-vertex counts in meta before a payload byte is read.
//
// Trust model: the CRCs catch accidental corruption; validatePart catches
// files whose checksums are consistent but whose content is not — at every
// K it re-derives what a part can know about itself (offsets, span order
// and range, the predicate list from the out spans, the entity role,
// entity list and literal count, in-edges whose subject the part owns)
// and compares. A part holds each edge once per direction and has no
// predicate-major copy: a predicate scan walks the out spans. What a part
// cannot re-derive is authoritative and CRC-only: the term bytes, the
// class role (classification is monotone: a class survives its last type
// edge), and for K ≥ 2 the term-kind and predicate role bits, in-edges
// from subjects another part owns and out-edges to objects another part
// owns (the edges, and which owned vertex's span holds them: their other
// copy is in the other part), and the global facts in meta (generations,
// counts, rdf:type, stats) — those the coordinator cross-checks between
// parts at dial time. At K = 1 assembleFrozen closes every one of them
// but the first two against the term dictionary. A file that loads
// answers queries exactly like the graph that saved it, or it is rejected
// with an error naming the section and its byte offset; it never panics.
//
// Version-bump policy: any change to the section list, section encodings or
// header layout bumps frozenVersion, and no reader for an older version is
// kept: N-Triples (gqa.SaveGraph) is the interchange and compatibility
// format, and a rejected file is rebuilt from it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"slices"

	"gqa/internal/rdf"
)

const (
	frozenMagic   = "GQAFRZ1\n"
	frozenVersion = 4
)

// Section indexes. The order is part of the format: the directory and the
// payloads identify sections by position, not by name.
const (
	frzMeta = iota
	frzTerms
	frzOutOff
	frzOutEdges
	frzInOff
	frzInEdges
	frzPredIDs
	frzRoles
	frzEntities
	frzSectionCount
)

var frzSectionNames = [frzSectionCount]string{
	"meta", "terms", "outOff", "outEdges", "inOff", "inEdges",
	"predIDs", "roles", "entities",
}

// frzElemSize is the element width of each array section.
var frzElemSize = [frzSectionCount]uint64{
	frzOutOff: 4, frzOutEdges: 8, frzInOff: 4, frzInEdges: 8, frzPredIDs: 4,
	frzRoles: 1, frzEntities: 4,
}

const (
	frzHeaderFixed  = 24 // magic + version + sections + content hash
	frzDirEntrySize = 12 // length uint64 + CRC32 uint32
	frzHeaderSize   = frzHeaderFixed + frzSectionCount*frzDirEntrySize + 4
	shrMetaSize     = 92

	maxFrozenTerms   = 1 << 31
	maxFrozenTriples = 1 << 31 // CSR offsets are uint32
)

// shardMeta is the fixed-size meta section, and the shard RPC's meta
// reply before its protocol revision: the part's identity within its snapshot and the assembly-time
// global facts every part of one export must agree on.
type shardMeta struct {
	shard    uint32
	k        uint32
	gen      uint64 // global mutation generation at export
	shardGen uint64 // repeats gen (every part is built at it); item 10's version bump drops it
	nTerms   uint64 // global term count
	nTriples uint64 // global triple count
	rdfType  uint32 // interned rdf:type ID (None when absent)
	literals uint64 // owned literal terms (this shard)
	stats    Stats  // global Table-4 stats at export
}

func encodeShardMeta(m *shardMeta) []byte {
	mb := make([]byte, 0, shrMetaSize)
	mb = binary.LittleEndian.AppendUint32(mb, m.shard)
	mb = binary.LittleEndian.AppendUint32(mb, m.k)
	mb = binary.LittleEndian.AppendUint64(mb, m.gen)
	mb = binary.LittleEndian.AppendUint64(mb, m.shardGen)
	mb = binary.LittleEndian.AppendUint64(mb, m.nTerms)
	mb = binary.LittleEndian.AppendUint64(mb, m.nTriples)
	mb = binary.LittleEndian.AppendUint32(mb, m.rdfType)
	mb = binary.LittleEndian.AppendUint64(mb, m.literals)
	for _, v := range [5]int{m.stats.Entities, m.stats.Classes, m.stats.Literals, m.stats.Triples, m.stats.Predicates} {
		mb = binary.LittleEndian.AppendUint64(mb, uint64(v))
	}
	return mb
}

// decodeShardMeta decodes a meta section; b is shrMetaSize bytes.
func decodeShardMeta(b []byte) shardMeta {
	var m shardMeta
	m.shard = binary.LittleEndian.Uint32(b[0:])
	m.k = binary.LittleEndian.Uint32(b[4:])
	m.gen = binary.LittleEndian.Uint64(b[8:])
	m.shardGen = binary.LittleEndian.Uint64(b[16:])
	m.nTerms = binary.LittleEndian.Uint64(b[24:])
	m.nTriples = binary.LittleEndian.Uint64(b[32:])
	m.rdfType = binary.LittleEndian.Uint32(b[40:])
	m.literals = binary.LittleEndian.Uint64(b[44:])
	m.stats = Stats{
		Entities:   int(binary.LittleEndian.Uint64(b[52:])),
		Classes:    int(binary.LittleEndian.Uint64(b[60:])),
		Literals:   int(binary.LittleEndian.Uint64(b[68:])),
		Triples:    int(binary.LittleEndian.Uint64(b[76:])),
		Predicates: int(binary.LittleEndian.Uint64(b[84:])),
	}
	return m
}

// ShardPart is one part of a frozen graph with its identity: the unit a
// file holds and gqa-shard serves. Obtain one from LoadShardPart or
// Snapshot.Part.
type ShardPart struct {
	part  *shardPart
	meta  shardMeta
	terms termTable // the term dictionary, carried exactly when K = 1
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

// Part wraps local part i of the snapshot for serving or export.
func (sn *Snapshot) Part(i int) *ShardPart {
	p := sn.parts[i]
	sp := &ShardPart{
		part: p,
		meta: shardMeta{
			shard:    uint32(i),
			k:        uint32(sn.k),
			gen:      sn.gen,
			shardGen: sn.gen,
			nTerms:   uint64(sn.terms.len()),
			nTriples: uint64(sn.nTriples),
			rdfType:  uint32(sn.rdfType),
			literals: uint64(p.literals),
			stats:    sn.stats,
		},
	}
	if sn.k == 1 {
		sp.terms = sn.terms
	}
	return sp
}

// SaveFrozen freezes the graph (a pointer load when already frozen at the
// current generation) and writes it as the one part of a K = 1 freeze,
// term dictionary included. Write errors are surfaced, not swallowed.
func SaveFrozen(w io.Writer, g *Graph) error {
	sn := g.Freeze()
	if sn.k > 1 {
		// Sharding is a runtime layout, reapplied via SetShards after
		// boot: build the one-part layout without installing it.
		sn = g.buildSnapshot(1)
	}
	return sn.Part(0).Save(w)
}

// SaveShardPart freezes the sharded graph (a pointer load when already
// frozen) and writes part `shard` of its snapshot. The graph must be
// sharded (SetShards(k>1)) and shard must be in [0, k).
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

// Save writes the part in GQAFRZ1 format.
func (sp *ShardPart) Save(w io.Writer) error {
	p := sp.part
	var secs [frzSectionCount][]byte
	secs[frzMeta] = encodeShardMeta(&sp.meta)
	if sp.meta.k == 1 {
		secs[frzTerms] = encodeFrozenTerms(&sp.terms)
	}
	secs[frzOutOff] = encodeFrzU32s(p.outOff)
	secs[frzOutEdges] = encodeFrzEdges(p.outEdges)
	secs[frzInOff] = encodeFrzU32s(p.inOff)
	secs[frzInEdges] = encodeFrzEdges(p.inEdges)
	secs[frzPredIDs] = encodeFrzU32s(p.predIDs)
	secs[frzRoles] = p.roles
	secs[frzEntities] = encodeFrzU32s(p.entities)

	var dir []byte
	for _, s := range secs {
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(s)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(s))
	}
	hdr := make([]byte, 0, frzHeaderSize)
	hdr = append(hdr, frozenMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, frozenVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, frzSectionCount)
	hdr = binary.LittleEndian.AppendUint64(hdr, frzContentHash(dir))
	hdr = append(hdr, dir...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("store: writing frozen file header: %w", err)
	}
	for i, s := range secs {
		if _, err := bw.Write(s); err != nil {
			return fmt.Errorf("store: writing frozen file section %s: %w", frzSectionNames[i], err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing frozen file: %w", err)
	}
	return nil
}

// frzContentHash digests the section directory (per-section lengths and
// CRC32s): a change to any payload byte changes its section CRC and with
// it this hash, without a second pass over the payload bytes.
func frzContentHash(dir []byte) uint64 {
	ch := fnv.New64a()
	ch.Write(dir)
	return ch.Sum64()
}

// encodeFrzU32s and decodeFrzU32s are the codec of the uint32 sections:
// offsets and ID lists.
func encodeFrzU32s[T ~uint32](v []T) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func encodeFrzEdges(v []Edge) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, e := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Pred))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.To))
	}
	return b
}

// LoadFrozen reads a K = 1 file into a fresh, fully servable graph: a
// graph that has been frozen, whose snapshot is the file's arrays
// installed at its saved generation (the first Frozen() call is a pointer
// load), with the term index rebuilt and no other copy of the graph, so
// Add/Remove work exactly as after an N-Triples load and a freeze.
// Corrupt, truncated, or internally inconsistent input is rejected with a
// positioned error; LoadFrozen never panics on hostile bytes and never
// returns a graph that answers differently from the one that was saved.
func LoadFrozen(r io.Reader) (*Graph, error) {
	pr := &partReader{r: r}
	sp, err := pr.load(false)
	if err != nil {
		return nil, err
	}
	g, err := assembleFrozen(sp, pr)
	if err != nil {
		return nil, err
	}
	snapshotBytes.Set(g.snap.Load().bytes)
	return g, nil
}

// LoadShardPart reads, checksums and validates one part of a K ≥ 2
// export, with the same rejection contract as LoadFrozen.
func LoadShardPart(r io.Reader) (*ShardPart, error) {
	return (&partReader{r: r}).load(true)
}

// partReader is the container reader: it counts consumed bytes and
// remembers where each section started, so every load error — the
// container's own and the validators' — names a section and byte offset.
type partReader struct {
	r   io.Reader
	n   int64
	dir [frzSectionCount]struct {
		length uint64
		crc    uint32
	}
	start [frzSectionCount]int64
}

func (pr *partReader) Read(p []byte) (int, error) {
	n, err := pr.r.Read(p)
	pr.n += int64(n)
	return n, err
}

// fail positions an error at section sec: at its payload once that has
// been read, at its directory entry before.
func (pr *partReader) fail(sec int, format string, args ...any) error {
	off := pr.start[sec]
	if off == 0 {
		off = int64(frzHeaderFixed + sec*frzDirEntrySize)
	}
	return fmt.Errorf("store: frozen file: section %s (byte offset %d): %s",
		frzSectionNames[sec], off, fmt.Sprintf(format, args...))
}

// section reads section sec, which must be the next one in the stream,
// and checks its CRC. The buffer grows geometrically so a lying length
// field cannot force a giant upfront allocation: a truncated file fails
// after at most one chunk beyond the bytes actually present.
func (pr *partReader) section(sec int) ([]byte, error) {
	pr.start[sec] = pr.n
	buf, err := readGrowing(pr, pr.dir[sec].length)
	if err != nil {
		return nil, fmt.Errorf("store: frozen file: section %s truncated at byte offset %d: %w", frzSectionNames[sec], pr.n, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != pr.dir[sec].crc {
		return nil, pr.fail(sec, "checksum mismatch (got %08x, want %08x)", got, pr.dir[sec].crc)
	}
	return buf, nil
}

// load is the one reader behind both entry points: container, meta,
// length cross-checks, payloads, then validatePart. wantShard says which
// kind of file the caller expects.
func (pr *partReader) load(wantShard bool) (*ShardPart, error) {
	hdr := make([]byte, frzHeaderSize)
	if _, err := io.ReadFull(pr, hdr[:8]); err != nil {
		return nil, fmt.Errorf("store: frozen file: header truncated at byte offset %d: %w", pr.n, err)
	}
	if string(hdr[:8]) != frozenMagic {
		return nil, fmt.Errorf("store: not a gqa frozen file (magic %q)", hdr[:8])
	}
	if _, err := io.ReadFull(pr, hdr[8:]); err != nil {
		return nil, fmt.Errorf("store: frozen file: header truncated at byte offset %d: %w", pr.n, err)
	}
	if got := binary.LittleEndian.Uint32(hdr[8:12]); got != frozenVersion {
		return nil, fmt.Errorf("store: frozen file: magic %q version %d is not readable by this build (version %d); re-export it from the N-Triples source",
			hdr[:8], got, frozenVersion)
	}
	if got := binary.LittleEndian.Uint32(hdr[12:16]); got != frzSectionCount {
		return nil, fmt.Errorf("store: frozen file: section count %d, want %d", got, frzSectionCount)
	}
	crcOff := frzHeaderSize - 4
	if got, want := binary.LittleEndian.Uint32(hdr[crcOff:]), crc32.ChecksumIEEE(hdr[:crcOff]); got != want {
		return nil, fmt.Errorf("store: frozen file: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if got, want := frzContentHash(hdr[frzHeaderFixed:crcOff]), binary.LittleEndian.Uint64(hdr[16:24]); got != want {
		return nil, fmt.Errorf("store: frozen file: content hash mismatch (got %016x, want %016x)", got, want)
	}
	for i := range pr.dir {
		off := frzHeaderFixed + i*frzDirEntrySize
		pr.dir[i].length = binary.LittleEndian.Uint64(hdr[off : off+8])
		pr.dir[i].crc = binary.LittleEndian.Uint32(hdr[off+8 : off+12])
	}

	if pr.dir[frzMeta].length != shrMetaSize {
		return nil, pr.fail(frzMeta, "length %d, want %d", pr.dir[frzMeta].length, shrMetaSize)
	}
	mb, err := pr.section(frzMeta)
	if err != nil {
		return nil, err
	}
	m := decodeShardMeta(mb)
	switch {
	case m.k == 0 || m.shard >= m.k:
		return nil, pr.fail(frzMeta, "part %d of %d", m.shard, m.k)
	case m.nTerms > maxFrozenTerms || m.nTriples > maxFrozenTriples:
		return nil, pr.fail(frzMeta, "implausible counts: %d terms, %d triples", m.nTerms, m.nTriples)
	case ID(m.rdfType) != None && uint64(m.rdfType) >= m.nTerms:
		return nil, pr.fail(frzMeta, "rdf:type ID %d out of range (%d terms)", m.rdfType, m.nTerms)
	case wantShard && m.k == 1:
		return nil, pr.fail(frzMeta, "a K=1 snapshot, not a shard part (load it with -frozen / LoadFrozen)")
	case !wantShard && m.k > 1:
		return nil, pr.fail(frzMeta, "part %d/%d of a sharded export, not a K=1 snapshot (serve it with gqa-shard / LoadShardPart)", m.shard, m.k)
	}
	sp := &ShardPart{meta: m}

	if tl := pr.dir[frzTerms].length; (m.k == 1 && tl < 4) || (m.k > 1 && tl != 0) {
		return nil, pr.fail(frzTerms, "length %d: the term dictionary is stored exactly when K=1 (K=%d)", tl, m.k)
	}
	tb, err := pr.section(frzTerms)
	if err != nil {
		return nil, err
	}
	if m.k == 1 {
		if sp.terms, err = decodeFrozenTerms(tb, m.nTerms); err != nil {
			return nil, pr.fail(frzTerms, "%v", err)
		}
	}

	// Cross-check every array section's length against the counts in meta
	// before reading a single payload byte: a length-field lie, a ragged
	// length included, is rejected here, not after a huge allocation.
	count := func(sec int) uint64 { return pr.dir[sec].length / frzElemSize[sec] }
	nLocal := uint64(localCount(int(m.nTerms), int(m.shard), int(m.k)))
	nOut := count(frzOutEdges)
	minEdges := uint64(0)
	if m.k == 1 {
		minEdges = m.nTriples
	}
	bounds := [frzSectionCount][2]uint64{
		frzOutOff:   {nLocal + 1, nLocal + 1},
		frzOutEdges: {minEdges, m.nTriples},
		frzInOff:    {nLocal + 1, nLocal + 1},
		frzInEdges:  {minEdges, m.nTriples},
		frzPredIDs:  {min(nOut, 1), min(nOut, m.nTerms)},
		frzRoles:    {nLocal, nLocal},
		frzEntities: {0, nLocal},
	}
	for sec := frzOutOff; sec < frzSectionCount; sec++ {
		if pr.dir[sec].length%frzElemSize[sec] != 0 {
			return nil, pr.fail(sec, "length %d is not a multiple of the %d-byte element", pr.dir[sec].length, frzElemSize[sec])
		}
		if c := count(sec); c < bounds[sec][0] || c > bounds[sec][1] {
			return nil, pr.fail(sec, "%d elements, want %d to %d for part %d/%d of %d terms / %d triples",
				c, bounds[sec][0], bounds[sec][1], m.shard, m.k, m.nTerms, m.nTriples)
		}
	}
	var payloads [frzSectionCount][]byte
	for sec := frzOutOff; sec < frzSectionCount; sec++ {
		if payloads[sec], err = pr.section(sec); err != nil {
			return nil, err
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(pr, one[:]); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("store: frozen file: reading past final section: %w", err)
		}
		return nil, fmt.Errorf("store: frozen file: trailing data at byte offset %d", pr.n-1)
	}

	p := &shardPart{
		shard:    int(m.shard),
		k:        int(m.k),
		nTerms:   int(m.nTerms),
		outOff:   decodeFrzU32s[uint32](payloads[frzOutOff]),
		outEdges: decodeFrzEdges(payloads[frzOutEdges]),
		inOff:    decodeFrzU32s[uint32](payloads[frzInOff]),
		inEdges:  decodeFrzEdges(payloads[frzInEdges]),
		predIDs:  decodeFrzU32s[ID](payloads[frzPredIDs]),
		roles:    append(make([]uint8, 0, nLocal), payloads[frzRoles]...),
		literals: int(m.literals),
	}
	if ents := decodeFrzU32s[ID](payloads[frzEntities]); len(ents) > 0 {
		p.entities = ents
	}
	p.bytes = p.arrayBytes()
	sp.part = p
	if err := validatePart(p, &m, pr); err != nil {
		return nil, err
	}
	return sp, nil
}

func decodeFrzU32s[T ~uint32](b []byte) []T {
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeFrzEdges(b []byte) []Edge {
	out := make([]Edge, len(b)/8)
	for i := range out {
		out[i] = Edge{
			Pred: ID(binary.LittleEndian.Uint32(b[8*i:])),
			To:   ID(binary.LittleEndian.Uint32(b[8*i+4:])),
		}
	}
	return out
}

// checkSpan is what every span a reader hands out must be, read from a
// file or from a shard's reply: each entry's predicate and target are terms
// (below nTerms), and the entries are strictly (Pred,To)-sorted, as the CSR
// keeps them and as spanHas's binary search needs. It returns the index of
// the first entry that is not, and why; -1 for a sound span.
func checkSpan(span []Edge, nTerms ID) (int, string) {
	for j, e := range span {
		if e.Pred >= nTerms || e.To >= nTerms {
			return j, fmt.Sprintf("references a term out of range (%d terms)", nTerms)
		}
		if j > 0 && (e.Pred < span[j-1].Pred || (e.Pred == span[j-1].Pred && e.To <= span[j-1].To)) {
			return j, "breaks the strict (Pred,To) order"
		}
	}
	return -1, ""
}

// validatePart is the semantic pass over a decoded part, at every K: it
// re-derives everything buildShardPart derives from the out and in spans
// and compares, so a file with consistent checksums cannot hand the
// readers an out-of-range offset or an unsorted span. The array lengths
// were cross-checked by load. Linear in the part's edges plus one binary
// search per predicate run and per in-edge from an owned subject; no
// per-triple map.
func validatePart(p *shardPart, m *shardMeta, pr *partReader) error {
	nTerms := ID(p.nTerms)
	for _, c := range [2]struct {
		sec, edgeSec int
		off          []uint32
		edges        []Edge
	}{{frzOutOff, frzOutEdges, p.outOff, p.outEdges}, {frzInOff, frzInEdges, p.inOff, p.inEdges}} {
		if c.off[0] != 0 {
			return pr.fail(c.sec, "first offset %d, want 0", c.off[0])
		}
		for i := 1; i < len(c.off); i++ {
			if c.off[i] < c.off[i-1] {
				return pr.fail(c.sec, "offset %d does not increase (%d after %d)", i, c.off[i], c.off[i-1])
			}
		}
		if last := c.off[len(c.off)-1]; int(last) != len(c.edges) {
			return pr.fail(c.sec, "final offset %d, want element count %d", last, len(c.edges))
		}
		for l := range p.roles {
			span := c.edges[c.off[l]:c.off[l+1]]
			if j, why := checkSpan(span, nTerms); j >= 0 {
				return pr.fail(c.edgeSec, "edge %d of local vertex %d %s", j, l, why)
			}
		}
	}
	for i, pid := range p.predIDs {
		if pid >= nTerms || (i > 0 && pid <= p.predIDs[i-1]) {
			return pr.fail(frzPredIDs, "predicate %d at index %d out of range or not strictly ascending", pid, i)
		}
	}

	// One walk over the owned vertices, ascending: the predicate list must
	// be exactly the out edges' predicates — each out edge's predicate is on
	// it, and each entry labels an out edge — and an edge with both
	// endpoints owned must be in both CSRs.
	used := make([]bool, len(p.predIDs))
	bothOut, bothIn := 0, 0
	for l := range p.roles {
		v := ID(p.shard + l*p.k)
		gi := 0
		for _, e := range p.outEdges[p.outOff[l]:p.outOff[l+1]] {
			if gi < len(p.predIDs) && p.predIDs[gi] != e.Pred {
				off, _ := slices.BinarySearch(p.predIDs[gi:], e.Pred)
				gi += off
			}
			if gi == len(p.predIDs) || p.predIDs[gi] != e.Pred {
				return pr.fail(frzPredIDs, "out edge (%d,%d,%d) has a predicate the list lacks", v, e.Pred, e.To)
			}
			used[gi] = true
			if int(e.To)%p.k == p.shard {
				bothOut++
			}
		}
		for _, e := range p.inEdges[p.inOff[l]:p.inOff[l+1]] {
			if int(e.To)%p.k == p.shard {
				bothIn++
				if s := int(e.To) / p.k; !spanHas(p.outEdges[p.outOff[s]:p.outOff[s+1]], e.Pred, v) {
					return pr.fail(frzInEdges, "in edge (%d,%d,%d) is not in its owned subject's out span", e.To, e.Pred, v)
				}
			}
		}
	}
	for i, u := range used {
		if !u {
			return pr.fail(frzPredIDs, "predicate %d labels no out edge", p.predIDs[i])
		}
	}
	if bothIn != bothOut {
		return pr.fail(frzInEdges, "%d in edges from owned subjects, the out spans hold %d edges to owned objects", bothIn, bothOut)
	}

	// Roles: the entity bit, the entity list and the literal count follow
	// from the other bits and the degrees; an rdf:type object is a class.
	ents, literals := 0, uint64(0)
	for l, r := range p.roles {
		v := ID(p.shard + l*p.k)
		if r >= roleEntity<<1 {
			return pr.fail(frzRoles, "local vertex %d has unknown role bits %#02x", l, r)
		}
		if r&roleLiteral != 0 {
			literals++
		}
		deg := p.outOff[l+1] - p.outOff[l] + p.inOff[l+1] - p.inOff[l]
		entity := r&roleIRI != 0 && r&(roleClass|rolePred) == 0 && deg > 0
		if entity != (r&roleEntity != 0) {
			return pr.fail(frzRoles, "local vertex %d has roles %#02x, entity role derived %v", l, r, entity)
		}
		if entity {
			if ents == len(p.entities) || p.entities[ents] != v {
				return pr.fail(frzEntities, "entry %d is not the derived entity %d", ents, v)
			}
			ents++
		}
		if r&roleClass == 0 && spanHasPred(p.inEdges[p.inOff[l]:p.inOff[l+1]], ID(m.rdfType)) {
			return pr.fail(frzRoles, "vertex %d is an rdf:type object but lacks the class role", v)
		}
	}
	if ents != len(p.entities) {
		return pr.fail(frzEntities, "%d entities, derived %d", len(p.entities), ents)
	}
	if literals != m.literals {
		return pr.fail(frzMeta, "%d owned literals, the role bitmap has %d", m.literals, literals)
	}
	return nil
}

// assembleFrozen is the K = 1 pass: it checks what only the whole graph
// can — the term dictionary, the vocabulary ID, the role bits that follow
// from term kinds and the predicate list, rdfs:subClassOf endpoints, the
// generations and the stats — and returns a graph that has been frozen:
// the validated snapshot installed at its saved generation as its base,
// with its term index and class and predicate sets, and no pending writes.
// It behaves exactly like a graph built by Intern+Add and frozen —
// including further mutation, which thaws rows from the base.
func assembleFrozen(sp *ShardPart, pr *partReader) (*Graph, error) {
	pt, m := sp.part, &sp.meta
	terms := &sp.terms
	n := terms.len()
	parts := localParts{pt}

	// Term index. A duplicate means the file disagrees with the interner:
	// the same term could not have been assigned two IDs. The vocabulary IDs
	// are what Intern would have produced for this term sequence (the last
	// term whose value matches wins, mirroring Intern's switch).
	if n > 0 {
		if i, prev := terms.rehash(indexSize(n)); i >= 0 {
			return nil, pr.fail(frzTerms, "term %d duplicates term %d (%s)", i, prev, terms.term(ID(i)))
		}
	}
	rdfType, subClass, labelPred := None, None, None
	for i := range n {
		switch terms.value(ID(i)) {
		case rdf.RDFType:
			rdfType = ID(i)
		case rdf.RDFSSubClass:
			subClass = ID(i)
		case rdf.RDFSLabel:
			labelPred = ID(i)
		}
	}
	if ID(m.rdfType) != rdfType {
		return nil, pr.fail(frzMeta, "rdf:type ID %d disagrees with the term dictionary (%d)", m.rdfType, rdfType)
	}

	// Kind and predicate role bits are derivable here and must match
	// exactly; the class bit is genuine state, but it must at least cover
	// the classes the surviving triples imply (validatePart checked the
	// rdf:type objects).
	// The graph's class and predicate sets come out of the same pass, the
	// predicates' triple counts out of one pass over the out edges.
	stats := Stats{Entities: len(pt.entities), Literals: pt.literals, Triples: len(pt.outEdges), Predicates: len(pt.predIDs)}
	classes, preds := make(map[ID]struct{}), make(map[ID]int, len(pt.predIDs))
	perPred := make([]int, n)
	for _, e := range pt.outEdges {
		perPred[e.Pred]++
	}
	pi := 0
	for v := range n {
		var want uint8
		switch terms.kind(ID(v)) {
		case rdf.KindIRI:
			want = roleIRI
		case rdf.KindLiteral:
			want = roleLiteral
		}
		if pi < len(pt.predIDs) && pt.predIDs[pi] == ID(v) {
			want |= rolePred
			preds[ID(v)] = perPred[v]
			pi++
		}
		if got := pt.roles[v] & (roleIRI | roleLiteral | rolePred); got != want {
			return nil, pr.fail(frzRoles, "vertex %d has kind/predicate roles %#02x, derived %#02x", v, got, want)
		}
		if pt.roles[v]&roleClass != 0 {
			classes[ID(v)] = struct{}{}
		}
	}
	stats.Classes = len(classes)
	for v := range n {
		for _, e := range parts.outPred(ID(v), subClass) {
			if pt.roles[v]&roleClass == 0 || pt.roles[e.To]&roleClass == 0 {
				return nil, pr.fail(frzRoles, "rdfs:subClassOf endpoints %d/%d lack the class role", v, e.To)
			}
		}
	}
	if m.stats != stats || m.shardGen != m.gen {
		return nil, pr.fail(frzMeta, "stats %+v at generations %d/%d, derived %+v at one generation", m.stats, m.gen, m.shardGen, stats)
	}

	// The graph is the snapshot: no insertion-order lists, no thawed rows, just
	// the term index, the vocabulary IDs and the class and predicate sets
	// later writes keep up to date.
	g := &Graph{
		terms: *terms, rdfType: rdfType, subClass: subClass, labelPred: labelPred,
		classes: classes, preds: preds, nTriples: len(pt.outEdges),
	}
	g.gen.Store(m.gen)
	labels := labelColumn(parts, terms, labelPred)
	g.snap.Store(&Snapshot{
		gen: m.gen, k: 1, terms: terms.frozen(), rd: parts, parts: parts,
		rdfType: rdfType, nTriples: len(pt.outEdges), predIDs: pt.predIDs,
		entities: pt.entities, labels: labels, stats: stats,
		bytes: pt.bytes + 4*int64(len(labels)) + terms.bytes(),
	})
	return g, nil
}
