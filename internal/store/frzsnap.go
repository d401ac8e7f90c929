package store

// GQAFRZ1: the one on-disk format. A file is part s of K of a frozen graph
// (shard.go): the part's flat CSR arrays, role bitmap and owned-entity
// list, dumped in their in-memory layout so a load is a bulk read instead
// of a rebuild. A whole graph is the K = 1 case and is the only one that
// carries the term dictionary (SaveFrozen / LoadFrozen, which also rebuilds
// the mutable mirror); a part of a K ≥ 2 export (SaveShardPart /
// LoadShardPart) is what gqa-shard serves, and its coordinator owns the
// dictionary.
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
// predIDs, predOff, predTriples, roles, entities. meta is the 92-byte
// shardMeta encoding the shard RPC's meta reply also uses; terms is a
// uint32 count followed by records (kind byte, then value/datatype/lang
// each as uint32 length + bytes) when K = 1 and empty otherwise; the rest
// are raw element dumps whose lengths are cross-checked against the term,
// triple and owned-vertex counts in meta before a payload byte is read.
//
// Trust model: the CRCs catch accidental corruption; validatePart catches
// files whose checksums are consistent but whose content is not — at every
// K it re-derives what a part can know about itself (offsets, span order
// and range, the predicate-major groups from the out spans, the entity
// role, entity list and literal count, in-edges whose subject the part
// owns) and compares. What a part cannot re-derive is authoritative and
// CRC-only: the term bytes, the class role (classification is monotone: a
// class survives its last type edge), and for K ≥ 2 the term-kind and
// predicate role bits, in-edges from subjects another part owns (the
// edges, and which owned vertex's span holds them), and the global facts
// in meta (generations, counts, rdf:type, stats) — those the coordinator
// cross-checks between parts at dial time. At K = 1
// assembleFrozen closes every one of them but the first two against the
// term dictionary. A file that loads answers queries exactly like the graph
// that saved it, or it is rejected with an error naming the section and its
// byte offset; it never panics.
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

	"gqa/internal/rdf"
)

const (
	frozenMagic   = "GQAFRZ1\n"
	frozenVersion = 3
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
	frzPredOff
	frzPredTriples
	frzRoles
	frzEntities
	frzSectionCount
)

var frzSectionNames = [frzSectionCount]string{
	"meta", "terms", "outOff", "outEdges", "inOff", "inEdges",
	"predIDs", "predOff", "predTriples", "roles", "entities",
}

// frzElemSize is the element width of each array section.
var frzElemSize = [frzSectionCount]uint64{
	frzOutOff: 4, frzOutEdges: 8, frzInOff: 4, frzInEdges: 8, frzPredIDs: 4,
	frzPredOff: 4, frzPredTriples: 12, frzRoles: 1, frzEntities: 4,
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
// reply: the part's identity within its snapshot and the assembly-time
// global facts every part of one export must agree on.
type shardMeta struct {
	shard    uint32
	k        uint32
	gen      uint64 // global mutation generation at export
	shardGen uint64 // this shard's generation at build (gen when K = 1)
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

func decodeShardMeta(b []byte) (shardMeta, error) {
	var m shardMeta
	if len(b) != shrMetaSize {
		return m, fmt.Errorf("shard meta is %d bytes, want %d", len(b), shrMetaSize)
	}
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
	return m, nil
}

// ShardPart is one part of a frozen graph with its identity: the unit a
// file holds and gqa-shard serves. Obtain one from LoadShardPart or
// Snapshot.Part.
type ShardPart struct {
	part  *shardPart
	meta  shardMeta
	terms []rdf.Term // the term dictionary, carried exactly when K = 1
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
			shardGen: p.gen,
			nTerms:   uint64(len(sn.terms)),
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
		sn, _ = g.buildSnapshot(1, nil)
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
		secs[frzTerms] = encodeFrozenTerms(sp.terms)
	}
	secs[frzOutOff] = encodeFrzU32s(p.outOff)
	secs[frzOutEdges] = encodeFrzEdges(p.outEdges)
	secs[frzInOff] = encodeFrzU32s(p.inOff)
	secs[frzInEdges] = encodeFrzEdges(p.inEdges)
	secs[frzPredIDs] = encodeFrzIDs(p.predIDs)
	secs[frzPredOff] = encodeFrzU32s(p.predOff)
	secs[frzPredTriples] = encodeFrzSpos(p.predTriples)
	secs[frzRoles] = p.roles
	secs[frzEntities] = encodeFrzIDs(p.entities)

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

func encodeFrozenTerms(terms []rdf.Term) []byte {
	tb := binary.LittleEndian.AppendUint32(nil, uint32(len(terms)))
	for _, t := range terms {
		tb = append(tb, byte(t.Kind()))
		for _, s := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
			tb = binary.LittleEndian.AppendUint32(tb, uint32(len(s)))
			tb = append(tb, s...)
		}
	}
	return tb
}

func encodeFrzU32s(v []uint32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

func encodeFrzIDs(v []ID) []byte {
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

func encodeFrzSpos(v []Spo) []byte {
	b := make([]byte, 0, 12*len(v))
	for _, t := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(t.S))
		b = binary.LittleEndian.AppendUint32(b, uint32(t.P))
		b = binary.LittleEndian.AppendUint32(b, uint32(t.O))
	}
	return b
}

// LoadFrozen reads a K = 1 file into a fresh, fully servable graph: the
// snapshot is installed at its saved generation (the first Frozen() call
// is a pointer load) and every mutable structure — term index, adjacency,
// triple set, predicate index, class/instance maps — is rebuilt from the
// flat arrays, so Add/Remove work exactly as after an N-Triples load.
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
	snapshotBytes.Set(sp.part.bytes)
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
	const chunk = 1 << 20
	pr.start[sec] = pr.n
	length := pr.dir[sec].length
	var buf []byte
	for uint64(len(buf)) < length {
		step := min(length-uint64(len(buf)), chunk)
		at := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(pr, buf[at:]); err != nil {
			return nil, fmt.Errorf("store: frozen file: section %s truncated at byte offset %d: %w", frzSectionNames[sec], pr.n, err)
		}
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
	m, _ := decodeShardMeta(mb)
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
	nOut, nPreds := count(frzOutEdges), count(frzPredIDs)
	minEdges := uint64(0)
	if m.k == 1 {
		minEdges = m.nTriples
	}
	bounds := [frzSectionCount][2]uint64{
		frzOutOff:      {nLocal + 1, nLocal + 1},
		frzOutEdges:    {minEdges, m.nTriples},
		frzInOff:       {nLocal + 1, nLocal + 1},
		frzInEdges:     {minEdges, m.nTriples},
		frzPredIDs:     {min(nOut, 1), min(nOut, m.nTerms)},
		frzPredOff:     {nPreds + 1, nPreds + 1},
		frzPredTriples: {nOut, nOut},
		frzRoles:       {nLocal, nLocal},
		frzEntities:    {0, nLocal},
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
		gen:         m.shardGen,
		shard:       int(m.shard),
		k:           int(m.k),
		nTerms:      int(m.nTerms),
		outOff:      decodeFrzU32s(payloads[frzOutOff]),
		outEdges:    decodeFrzEdges(payloads[frzOutEdges]),
		inOff:       decodeFrzU32s(payloads[frzInOff]),
		inEdges:     decodeFrzEdges(payloads[frzInEdges]),
		predIDs:     decodeFrzIDs(payloads[frzPredIDs]),
		predOff:     decodeFrzU32s(payloads[frzPredOff]),
		predTriples: decodeFrzSpos(payloads[frzPredTriples]),
		roles:       append(make([]uint8, 0, nLocal), payloads[frzRoles]...),
		literals:    int(m.literals),
	}
	if ents := decodeFrzIDs(payloads[frzEntities]); len(ents) > 0 {
		p.entities = ents
	}
	p.bytes = p.arrayBytes()
	sp.part = p
	if err := validatePart(p, &m, pr); err != nil {
		return nil, err
	}
	return sp, nil
}

// decodeFrozenTerms decodes the terms payload, which must hold exactly
// want records.
func decodeFrozenTerms(b []byte, want uint64) ([]rdf.Term, error) {
	count := uint64(binary.LittleEndian.Uint32(b))
	if count != want {
		return nil, fmt.Errorf("%d terms, meta says %d", count, want)
	}
	// Every record is at least 13 bytes (kind + three length fields), so an
	// inflated count is rejected before any allocation proportional to it.
	if count*13 > uint64(len(b)-4) {
		return nil, fmt.Errorf("term count %d exceeds payload size %d", count, len(b))
	}
	var terms []rdf.Term
	if count > 0 {
		terms = make([]rdf.Term, 0, count)
	}
	off := 4
	readStr := func() (string, bool) {
		if off+4 > len(b) {
			return "", false
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l > len(b)-off {
			return "", false
		}
		s := string(b[off : off+l])
		off += l
		return s, true
	}
	for i := 0; i < int(count); i++ {
		if off >= len(b) {
			return nil, fmt.Errorf("term %d truncated", i)
		}
		kind := b[off]
		off++
		value, ok1 := readStr()
		datatype, ok2 := readStr()
		lang, ok3 := readStr()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("term %d truncated", i)
		}
		var t rdf.Term
		switch rdf.Kind(kind) {
		case rdf.KindIRI, rdf.KindBlank:
			if datatype != "" || lang != "" {
				return nil, fmt.Errorf("term %d: non-literal carries datatype/lang", i)
			}
			if rdf.Kind(kind) == rdf.KindIRI {
				t = rdf.NewIRI(value)
			} else {
				t = rdf.NewBlank(value)
			}
		case rdf.KindLiteral:
			switch {
			case datatype != "" && lang != "":
				return nil, fmt.Errorf("term %d: literal carries both datatype and lang", i)
			case lang != "":
				t = rdf.NewLangLiteral(value, lang)
			case datatype != "":
				t = rdf.NewTypedLiteral(value, datatype)
			default:
				t = rdf.NewLiteral(value)
			}
		default:
			return nil, fmt.Errorf("term %d has unknown kind %d", i, kind)
		}
		terms = append(terms, t)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes", len(b)-off)
	}
	return terms, nil
}

func decodeFrzU32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeFrzIDs(b []byte) []ID {
	out := make([]ID, len(b)/4)
	for i := range out {
		out[i] = ID(binary.LittleEndian.Uint32(b[4*i:]))
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

func decodeFrzSpos(b []byte) []Spo {
	out := make([]Spo, len(b)/12)
	for i := range out {
		out[i] = Spo{
			S: ID(binary.LittleEndian.Uint32(b[12*i:])),
			P: ID(binary.LittleEndian.Uint32(b[12*i+4:])),
			O: ID(binary.LittleEndian.Uint32(b[12*i+8:])),
		}
	}
	return out
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
	for _, c := range [3]struct {
		sec    int
		off    []uint32
		end    int
		strict bool // every predicate has at least one triple
	}{
		{frzOutOff, p.outOff, len(p.outEdges), false},
		{frzInOff, p.inOff, len(p.inEdges), false},
		{frzPredOff, p.predOff, len(p.predTriples), true},
	} {
		if c.off[0] != 0 {
			return pr.fail(c.sec, "first offset %d, want 0", c.off[0])
		}
		for i := 1; i < len(c.off); i++ {
			if c.off[i] < c.off[i-1] || (c.strict && c.off[i] == c.off[i-1]) {
				return pr.fail(c.sec, "offset %d does not increase (%d after %d)", i, c.off[i], c.off[i-1])
			}
		}
		if last := c.off[len(c.off)-1]; int(last) != c.end {
			return pr.fail(c.sec, "final offset %d, want element count %d", last, c.end)
		}
	}
	for _, c := range [2]struct {
		sec   int
		off   []uint32
		edges []Edge
	}{{frzOutEdges, p.outOff, p.outEdges}, {frzInEdges, p.inOff, p.inEdges}} {
		for l := range p.roles {
			span := c.edges[c.off[l]:c.off[l+1]]
			for j, e := range span {
				if e.Pred >= nTerms || e.To >= nTerms {
					return pr.fail(c.sec, "edge %d of local vertex %d references a term out of range (%d terms)", j, l, nTerms)
				}
				if j > 0 && (e.Pred < span[j-1].Pred || (e.Pred == span[j-1].Pred && e.To <= span[j-1].To)) {
					return pr.fail(c.sec, "span of local vertex %d not strictly (Pred,To)-sorted at index %d", l, j)
				}
			}
		}
	}
	for i, pid := range p.predIDs {
		if pid >= nTerms || (i > 0 && pid <= p.predIDs[i-1]) {
			return pr.fail(frzPredIDs, "predicate %d at index %d out of range or not strictly ascending", pid, i)
		}
	}

	// One walk over the owned vertices, ascending: the predicate-major
	// groups must be exactly what the walk scatters (the cursor fill of
	// buildShardPart, replayed as a comparison), and an edge with both
	// endpoints owned must be in both CSRs.
	cursor := append([]uint32(nil), p.predOff[:len(p.predIDs)]...)
	bothOut, bothIn := 0, 0
	for l := range p.roles {
		v := ID(p.shard + l*p.k)
		gi := 0
		for _, e := range p.outEdges[p.outOff[l]:p.outOff[l+1]] {
			if gi < len(p.predIDs) && p.predIDs[gi] != e.Pred {
				gi += lowerBoundID(p.predIDs[gi:], e.Pred)
			}
			if gi == len(p.predIDs) || p.predIDs[gi] != e.Pred || cursor[gi] == p.predOff[gi+1] ||
				p.predTriples[cursor[gi]] != (Spo{S: v, P: e.Pred, O: e.To}) {
				return pr.fail(frzPredTriples, "out edge (%d,%d,%d) is not the next triple of its predicate group", v, e.Pred, e.To)
			}
			cursor[gi]++
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
// generations and the stats — and then rebuilds the mutable mirror
// structures (term index, adjacency, triple set, predicate index,
// class/instance maps) so the returned graph behaves exactly like one
// built by Intern+Add — including further mutation — with the validated
// snapshot installed at its saved generation.
func assembleFrozen(sp *ShardPart, pr *partReader) (*Graph, error) {
	pt, terms, m := sp.part, sp.terms, &sp.meta
	n := len(terms)
	parts := localParts{pt}

	// Term index. A duplicate means the file disagrees with the interner:
	// the same key could not have been assigned two IDs. The vocabulary IDs
	// are what Intern would have produced for this term sequence (the last
	// term whose value matches wins, mirroring Intern's switch).
	index := make(map[string]ID, n)
	rdfType, subClass, labelPred := None, None, None
	for i, t := range terms {
		k := t.Key()
		if prev, dup := index[k]; dup {
			return nil, pr.fail(frzTerms, "term %d duplicates term %d (%s)", i, prev, t)
		}
		index[k] = ID(i)
		switch t.Value() {
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
	stats := Stats{Entities: len(pt.entities), Literals: pt.literals, Triples: len(pt.predTriples), Predicates: len(pt.predIDs)}
	pi := 0
	for v, t := range terms {
		var want uint8
		switch {
		case t.IsIRI():
			want = roleIRI
		case t.IsLiteral():
			want = roleLiteral
		}
		if pi < len(pt.predIDs) && pt.predIDs[pi] == ID(v) {
			want |= rolePred
			pi++
		}
		if got := pt.roles[v] & (roleIRI | roleLiteral | rolePred); got != want {
			return nil, pr.fail(frzRoles, "vertex %d has kind/predicate roles %#02x, derived %#02x", v, got, want)
		}
		if pt.roles[v]&roleClass != 0 {
			stats.Classes++
		}
	}
	// K = 1: a predicate has at most one group.
	group := func(p ID) []Spo {
		if gs := parts.predGroups(p); len(gs) > 0 {
			return gs[0]
		}
		return nil
	}
	for _, spo := range group(subClass) {
		if pt.roles[spo.S]&roleClass == 0 || pt.roles[spo.O]&roleClass == 0 {
			return nil, pr.fail(frzRoles, "rdfs:subClassOf endpoints %d/%d lack the class role", spo.S, spo.O)
		}
	}
	if m.stats != stats || m.shardGen != m.gen {
		return nil, pr.fail(frzMeta, "stats %+v at generations %d/%d, derived %+v at one generation", m.stats, m.gen, m.shardGen, stats)
	}

	// Mutable mirror. Adjacency and predicate-major backing arrays are
	// copies: Remove shifts entries in place within a vertex's own window,
	// which must never write through to the immutable snapshot.
	g := New()
	g.terms = terms
	g.index = index
	g.rdfType, g.subClass, g.labelPred = rdfType, subClass, labelPred
	outBack := append([]Edge(nil), pt.outEdges...)
	inBack := append([]Edge(nil), pt.inEdges...)
	g.out = make([][]Edge, n)
	g.in = make([][]Edge, n)
	for v := 0; v < n; v++ {
		a, b := pt.outOff[v], pt.outOff[v+1]
		g.out[v] = outBack[a:b:b]
		a, b = pt.inOff[v], pt.inOff[v+1]
		g.in[v] = inBack[a:b:b]
	}
	g.triples = make(map[Spo]struct{}, len(pt.predTriples))
	for _, spo := range pt.predTriples {
		g.triples[spo] = struct{}{}
	}
	predBack := append([]Spo(nil), pt.predTriples...)
	for i, p := range pt.predIDs {
		a, b := pt.predOff[i], pt.predOff[i+1]
		g.byPred[p] = predBack[a:b:b]
		g.preds[p] = int(b - a)
	}
	for v := 0; v < n; v++ {
		if pt.roles[v]&roleClass != 0 {
			g.classes[ID(v)] = struct{}{}
		}
	}
	for _, spo := range group(rdfType) {
		g.instances[spo.O] = append(g.instances[spo.O], spo.S)
	}
	g.gen.Store(m.gen)
	g.snap.Store(&Snapshot{
		gen: m.gen, k: 1, terms: terms, rd: parts, parts: parts,
		rdfType: rdfType, nTriples: len(pt.predTriples), predIDs: pt.predIDs,
		entities: pt.entities, stats: stats, bytes: pt.bytes,
	})
	return g, nil
}
