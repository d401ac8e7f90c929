package store

// GQAFRZ1: the persistent frozen-CSR snapshot format. Where snapshot.go's
// GQASNAP1 is a compact *interchange* format (dictionary + triple list,
// re-interned and re-frozen on load), GQAFRZ1 serializes the frozen
// in-memory Snapshot itself — the flat CSR arrays, the interned term
// dictionary, the two-hash-bit vertex signatures, and the role bitmap — so
// cold start becomes a bulk read into the slice layout instead of a
// rebuild: no per-term Intern, no adjacency sorts, no role pass. The first
// Frozen() call on a loaded graph is free.
//
// Layout (all integers little-endian, fixed width — the format is
// canonical: a valid file re-serializes byte-identically):
//
//	magic "GQAFRZ1\n" (8 bytes)
//	version   uint32
//	sections  uint32 (always frzSectionCount)
//	generation uint64 (mutation generation the snapshot was built at)
//	content hash uint64 (FNV-64a over the section directory below — a
//	digest of the per-section lengths and CRC32s, so it identifies the
//	payload content without a second pass over the payload bytes)
//	directory: per section, in fixed order: length uint64, CRC32 uint32
//	header CRC32 uint32 (over everything above)
//	section payloads, in directory order
//	EOF (trailing bytes are rejected)
//
// Sections, in order: terms, meta, outOff, outEdges, inOff, inEdges,
// predIDs, predOff, predTriples, sig, roles, entities. The terms payload is
// a uint32 count followed by records (kind byte, then value/datatype/lang
// each as uint32 length + bytes); meta is rdfType/subClass/labelPred as
// uint32 IDs plus the triple count as uint64; array sections are raw
// little-endian element dumps whose byte lengths are fully determined by
// the term and triple counts — a length-field lie is caught by cross-check
// before the payload is read.
//
// Trust model: the CRCs catch accidental corruption (every single-bit flip
// in header or payload fails a checksum); the semantic validation pass
// catches crafted or buggy files whose checksums are internally consistent
// — offsets must be monotone and bounded, spans strictly (Pred,To)-sorted,
// predicate groups strictly (S,O)-sorted, the out/in/predicate-major views
// must describe the same triple set, and signatures, roles, entities and
// stats are recomputed and compared rather than trusted. A file that loads
// answers queries exactly like the graph that saved it, or it is rejected
// with a positioned error; it never panics and never silently diverges.
//
// Version-bump policy: any change to the section list, section encodings,
// or header layout bumps frozenVersion; readers reject versions they do
// not understand rather than guessing. GQASNAP1 remains the compatibility
// format across GQAFRZ1 version bumps.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"time"

	"gqa/internal/obs"
	"gqa/internal/rdf"
)

var (
	frozenSaveSeconds = obs.DefaultHistogram("gqa_store_frozen_save_seconds",
		"Time to serialize one GQAFRZ1 frozen snapshot (excluding the freeze itself).", nil)
	frozenLoadSeconds = obs.DefaultHistogram("gqa_store_frozen_load_seconds",
		"Time to load and validate one GQAFRZ1 frozen snapshot into a servable graph.", nil)
	frozenLoads = obs.DefaultCounter("gqa_store_frozen_loads_total",
		"GQAFRZ1 frozen snapshots loaded successfully.")
	frozenLoadErrors = obs.DefaultCounter("gqa_store_frozen_load_errors_total",
		"GQAFRZ1 frozen snapshot loads rejected (corrupt, truncated, or inconsistent).")
)

const (
	frozenMagic   = "GQAFRZ1\n"
	frozenVersion = 1
)

// Section indexes. The order is part of the format: the directory and the
// payloads identify sections by position, not by name.
const (
	frzTerms = iota
	frzMeta
	frzOutOff
	frzOutEdges
	frzInOff
	frzInEdges
	frzPredIDs
	frzPredOff
	frzPredTriples
	frzSig
	frzRoles
	frzEntities
	frzSectionCount
)

var frzSectionNames = [frzSectionCount]string{
	"terms", "meta", "outOff", "outEdges", "inOff", "inEdges",
	"predIDs", "predOff", "predTriples", "sig", "roles", "entities",
}

const (
	frzHeaderFixed  = 32 // magic + version + sections + generation + content hash
	frzDirEntrySize = 12 // length uint64 + CRC32 uint32
	frzHeaderSize   = frzHeaderFixed + frzSectionCount*frzDirEntrySize + 4
	frzMetaSize     = 20

	maxFrozenTerms   = 1 << 31
	maxFrozenTriples = 1 << 31 // CSR offsets are uint32
)

// SaveFrozen freezes the graph (a pointer load when already frozen at the
// current generation) and writes the snapshot in GQAFRZ1 format. Write
// errors are surfaced, not swallowed.
func SaveFrozen(w io.Writer, g *Graph) error {
	sn := g.Freeze()
	if sn.k > 1 {
		// The format is single-part (sharding is a runtime layout,
		// reapplied via SetShards after boot), so build that layout
		// directly without installing it.
		sn, _ = g.buildSnapshot(1, nil)
	}
	start := time.Now()
	secs := encodeFrozenSections(sn, g.subClass, g.labelPred)
	var dir []byte
	for _, s := range secs {
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(s)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.ChecksumIEEE(s))
	}
	hdr := make([]byte, 0, frzHeaderSize)
	hdr = append(hdr, frozenMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, frozenVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, frzSectionCount)
	hdr = binary.LittleEndian.AppendUint64(hdr, sn.gen)
	hdr = binary.LittleEndian.AppendUint64(hdr, frzContentHash(dir))
	hdr = append(hdr, dir...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("store: writing frozen snapshot header: %w", err)
	}
	for i, s := range secs {
		if _, err := bw.Write(s); err != nil {
			return fmt.Errorf("store: writing frozen snapshot section %s: %w", frzSectionNames[i], err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing frozen snapshot: %w", err)
	}
	frozenSaveSeconds.ObserveDuration(time.Since(start))
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

func encodeFrozenSections(sn *Snapshot, subClass, labelPred ID) [frzSectionCount][]byte {
	var secs [frzSectionCount][]byte
	p := sn.parts[0]

	tb := binary.LittleEndian.AppendUint32(nil, uint32(len(sn.terms)))
	for _, t := range sn.terms {
		tb = append(tb, byte(t.Kind()))
		for _, s := range [3]string{t.Value(), t.Datatype(), t.Lang()} {
			tb = binary.LittleEndian.AppendUint32(tb, uint32(len(s)))
			tb = append(tb, s...)
		}
	}
	secs[frzTerms] = tb

	mb := make([]byte, 0, frzMetaSize)
	mb = binary.LittleEndian.AppendUint32(mb, uint32(sn.rdfType))
	mb = binary.LittleEndian.AppendUint32(mb, uint32(subClass))
	mb = binary.LittleEndian.AppendUint32(mb, uint32(labelPred))
	mb = binary.LittleEndian.AppendUint64(mb, uint64(sn.nTriples))
	secs[frzMeta] = mb

	secs[frzOutOff] = encodeFrzU32s(p.outOff)
	secs[frzOutEdges] = encodeFrzEdges(p.outEdges)
	secs[frzInOff] = encodeFrzU32s(p.inOff)
	secs[frzInEdges] = encodeFrzEdges(p.inEdges)
	secs[frzPredIDs] = encodeFrzIDs(p.predIDs)
	secs[frzPredOff] = encodeFrzU32s(p.predOff)
	secs[frzPredTriples] = encodeFrzSpos(p.predTriples)
	secs[frzSig] = encodeFrzSigs(p.sig)
	secs[frzRoles] = append([]byte(nil), p.roles...)
	secs[frzEntities] = encodeFrzIDs(p.entities)
	return secs
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

func encodeFrzSigs(v [][2]uint64) []byte {
	b := make([]byte, 0, 16*len(v))
	for _, s := range v {
		b = binary.LittleEndian.AppendUint64(b, s[0])
		b = binary.LittleEndian.AppendUint64(b, s[1])
	}
	return b
}

// countingReader tracks how many bytes have been consumed from the
// underlying reader so load errors can name a byte offset.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// LoadFrozen reads a GQAFRZ1 frozen snapshot into a fresh, fully servable
// graph: the snapshot is installed at its saved generation (the first
// Frozen() call is a pointer load) and every mutable structure — term
// index, adjacency, triple set, predicate index, class/instance maps — is
// rebuilt from the flat arrays, so Add/Remove work exactly as after an
// N-Triples load. Corrupt, truncated, or internally inconsistent input is
// rejected with a positioned error; LoadFrozen never panics on hostile
// bytes and never returns a graph that answers differently from the one
// that was saved.
func LoadFrozen(r io.Reader) (*Graph, error) {
	start := time.Now()
	cr := &countingReader{r: r}
	g, err := loadFrozen(cr)
	if err != nil {
		frozenLoadErrors.Inc()
		return nil, err
	}
	frozenLoads.Inc()
	frozenLoadSeconds.ObserveDuration(time.Since(start))
	if sn := g.snap.Load(); sn != nil {
		snapshotBytes.Set(sn.bytes)
	}
	return g, nil
}

func loadFrozen(cr *countingReader) (*Graph, error) {
	hdr := make([]byte, frzHeaderSize)
	if _, err := io.ReadFull(cr, hdr); err != nil {
		return nil, fmt.Errorf("store: frozen snapshot: header truncated at byte offset %d: %w", cr.n, err)
	}
	if string(hdr[:8]) != frozenMagic {
		return nil, fmt.Errorf("store: not a gqa frozen snapshot (magic %q)", hdr[:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[8:12]); got != frozenVersion {
		return nil, fmt.Errorf("store: frozen snapshot: unsupported version %d (this build reads version %d)", got, frozenVersion)
	}
	if got := binary.LittleEndian.Uint32(hdr[12:16]); got != frzSectionCount {
		return nil, fmt.Errorf("store: frozen snapshot: section count %d, want %d", got, frzSectionCount)
	}
	gen := binary.LittleEndian.Uint64(hdr[16:24])
	contentHash := binary.LittleEndian.Uint64(hdr[24:32])
	crcOff := frzHeaderSize - 4
	if got, want := binary.LittleEndian.Uint32(hdr[crcOff:]), crc32.ChecksumIEEE(hdr[:crcOff]); got != want {
		return nil, fmt.Errorf("store: frozen snapshot: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if got := frzContentHash(hdr[frzHeaderFixed:crcOff]); got != contentHash {
		return nil, fmt.Errorf("store: frozen snapshot: content hash mismatch (got %016x, want %016x)", got, contentHash)
	}
	var dir [frzSectionCount]struct {
		length uint64
		crc    uint32
	}
	for i := range dir {
		off := frzHeaderFixed + i*frzDirEntrySize
		dir[i].length = binary.LittleEndian.Uint64(hdr[off : off+8])
		dir[i].crc = binary.LittleEndian.Uint32(hdr[off+8 : off+12])
	}

	readSec := func(i int) ([]byte, error) {
		b, err := readFrozenSection(cr, frzSectionNames[i], dir[i].length)
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(b); got != dir[i].crc {
			return nil, fmt.Errorf("store: frozen snapshot: section %s checksum mismatch (got %08x, want %08x)",
				frzSectionNames[i], got, dir[i].crc)
		}
		return b, nil
	}

	termsPayload, err := readSec(frzTerms)
	if err != nil {
		return nil, err
	}
	terms, err := decodeFrozenTerms(termsPayload)
	if err != nil {
		return nil, err
	}
	n := uint64(len(terms))

	if dir[frzMeta].length != frzMetaSize {
		return nil, fmt.Errorf("store: frozen snapshot: section meta: length %d, want %d", dir[frzMeta].length, frzMetaSize)
	}
	metaPayload, err := readSec(frzMeta)
	if err != nil {
		return nil, err
	}
	rdfTypeID := ID(binary.LittleEndian.Uint32(metaPayload[0:4]))
	subClassID := ID(binary.LittleEndian.Uint32(metaPayload[4:8]))
	labelPredID := ID(binary.LittleEndian.Uint32(metaPayload[8:12]))
	nTriples := binary.LittleEndian.Uint64(metaPayload[12:20])
	if nTriples > maxFrozenTriples {
		return nil, fmt.Errorf("store: frozen snapshot: implausible triple count %d", nTriples)
	}
	for _, v := range [3]struct {
		name string
		id   ID
	}{{"rdfType", rdfTypeID}, {"subClass", subClassID}, {"labelPred", labelPredID}} {
		if v.id != None && uint64(v.id) >= n {
			return nil, fmt.Errorf("store: frozen snapshot: section meta: %s ID %d out of range (%d terms)", v.name, v.id, n)
		}
	}

	// Cross-check every remaining section length against the term and
	// triple counts before reading a single payload byte: a length-field
	// lie is rejected here, not discovered after a huge allocation.
	if dir[frzPredIDs].length%4 != 0 {
		return nil, fmt.Errorf("store: frozen snapshot: section predIDs: length %d not a multiple of 4", dir[frzPredIDs].length)
	}
	nPreds := dir[frzPredIDs].length / 4
	if nPreds > n || (nTriples > 0 && nPreds > nTriples) || (nTriples == 0 && nPreds > 0) {
		return nil, fmt.Errorf("store: frozen snapshot: section predIDs: %d predicates inconsistent with %d terms / %d triples", nPreds, n, nTriples)
	}
	if dir[frzEntities].length%4 != 0 {
		return nil, fmt.Errorf("store: frozen snapshot: section entities: length %d not a multiple of 4", dir[frzEntities].length)
	}
	if nEnts := dir[frzEntities].length / 4; nEnts > n {
		return nil, fmt.Errorf("store: frozen snapshot: section entities: %d entities exceed %d terms", nEnts, n)
	}
	wantLen := [frzSectionCount]uint64{
		frzOutOff:      4 * (n + 1),
		frzOutEdges:    8 * nTriples,
		frzInOff:       4 * (n + 1),
		frzInEdges:     8 * nTriples,
		frzPredOff:     4 * (nPreds + 1),
		frzPredTriples: 12 * nTriples,
		frzSig:         16 * n,
		frzRoles:       n,
	}
	for i := frzOutOff; i < frzSectionCount; i++ {
		if i == frzPredIDs || i == frzEntities {
			continue
		}
		if dir[i].length != wantLen[i] {
			return nil, fmt.Errorf("store: frozen snapshot: section %s: length %d, want %d for %d terms / %d triples",
				frzSectionNames[i], dir[i].length, wantLen[i], n, nTriples)
		}
	}

	payloads := make([][]byte, frzSectionCount)
	for i := frzOutOff; i < frzSectionCount; i++ {
		if payloads[i], err = readSec(i); err != nil {
			return nil, err
		}
	}
	var one [1]byte
	if _, err := io.ReadFull(cr, one[:]); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("store: frozen snapshot: reading past final section: %w", err)
		}
		return nil, fmt.Errorf("store: frozen snapshot: trailing data at byte offset %d", cr.n-1)
	}

	p := &shardPart{
		gen:         gen,
		k:           1,
		nTerms:      len(terms),
		outOff:      decodeFrzU32s(payloads[frzOutOff]),
		outEdges:    decodeFrzEdges(payloads[frzOutEdges]),
		inOff:       decodeFrzU32s(payloads[frzInOff]),
		inEdges:     decodeFrzEdges(payloads[frzInEdges]),
		predIDs:     decodeFrzIDs(payloads[frzPredIDs]),
		predOff:     decodeFrzU32s(payloads[frzPredOff]),
		predTriples: decodeFrzSpos(payloads[frzPredTriples]),
		sig:         decodeFrzSigs(payloads[frzSig]),
		roles:       append(make([]uint8, 0, n), payloads[frzRoles]...),
	}
	if ents := decodeFrzIDs(payloads[frzEntities]); len(ents) > 0 {
		p.entities = ents
	}
	p.bytes = p.arrayBytes()
	return assembleFrozen(p, terms, rdfTypeID, subClassID, labelPredID)
}

// readFrozenSection reads exactly length bytes, growing the buffer
// geometrically so a lying length field cannot force a giant upfront
// allocation: a truncated file fails after at most one chunk beyond the
// bytes actually present.
func readFrozenSection(cr *countingReader, name string, length uint64) ([]byte, error) {
	const chunk = 1 << 20
	if length == 0 {
		return nil, nil
	}
	buf := make([]byte, 0, min(length, chunk))
	for uint64(len(buf)) < length {
		step := min(length-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(cr, buf[start:]); err != nil {
			return nil, fmt.Errorf("store: frozen snapshot: section %s truncated at byte offset %d: %w", name, cr.n, err)
		}
	}
	return buf, nil
}

func decodeFrozenTerms(b []byte) ([]rdf.Term, error) {
	const pre = "store: frozen snapshot: section terms"
	if len(b) < 4 {
		return nil, fmt.Errorf("%s: missing term count", pre)
	}
	count := binary.LittleEndian.Uint32(b)
	if count > maxFrozenTerms {
		return nil, fmt.Errorf("%s: implausible term count %d", pre, count)
	}
	// Every record is at least 13 bytes (kind + three length fields), so an
	// inflated count is rejected before any allocation proportional to it.
	if uint64(count)*13 > uint64(len(b)-4) {
		return nil, fmt.Errorf("%s: term count %d exceeds payload size %d", pre, count, len(b))
	}
	if count == 0 {
		if len(b) != 4 {
			return nil, fmt.Errorf("%s: %d trailing bytes", pre, len(b)-4)
		}
		return nil, nil
	}
	terms := make([]rdf.Term, 0, count)
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
			return nil, fmt.Errorf("%s: term %d truncated", pre, i)
		}
		kind := b[off]
		off++
		value, ok1 := readStr()
		datatype, ok2 := readStr()
		lang, ok3 := readStr()
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("%s: term %d truncated", pre, i)
		}
		var t rdf.Term
		switch rdf.Kind(kind) {
		case rdf.KindIRI, rdf.KindBlank:
			if datatype != "" || lang != "" {
				return nil, fmt.Errorf("%s: term %d: non-literal carries datatype/lang", pre, i)
			}
			if rdf.Kind(kind) == rdf.KindIRI {
				t = rdf.NewIRI(value)
			} else {
				t = rdf.NewBlank(value)
			}
		case rdf.KindLiteral:
			switch {
			case datatype != "" && lang != "":
				return nil, fmt.Errorf("%s: term %d: literal carries both datatype and lang", pre, i)
			case lang != "":
				t = rdf.NewLangLiteral(value, lang)
			case datatype != "":
				t = rdf.NewTypedLiteral(value, datatype)
			default:
				t = rdf.NewLiteral(value)
			}
		default:
			return nil, fmt.Errorf("%s: term %d has unknown kind %d", pre, i, kind)
		}
		terms = append(terms, t)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%s: %d trailing bytes", pre, len(b)-off)
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

func decodeFrzSigs(b []byte) [][2]uint64 {
	out := make([][2]uint64, len(b)/16)
	for i := range out {
		out[i][0] = binary.LittleEndian.Uint64(b[16*i:])
		out[i][1] = binary.LittleEndian.Uint64(b[16*i+8:])
	}
	return out
}

// assembleFrozen runs the semantic validation pass over the decoded arrays
// and, when everything checks out, rebuilds the mutable mirror structures
// (term index, adjacency, triple set, predicate index, class/instance
// maps) so the returned graph behaves exactly like one built by Intern+Add
// — including further mutation — with the validated snapshot installed at
// its saved generation.
func assembleFrozen(pt *shardPart, terms []rdf.Term, rdfType, subClass, labelPred ID) (*Graph, error) {
	fail := func(format string, args ...any) (*Graph, error) {
		return nil, fmt.Errorf("store: frozen snapshot: "+format, args...)
	}
	n := len(terms)
	nTriples := len(pt.predTriples)
	nT := uint32(nTriples)
	parts := localParts{pt}

	// Term index. A duplicate means the file disagrees with the interner:
	// the same key could not have been assigned two IDs.
	index := make(map[string]ID, n)
	for i, t := range terms {
		k := t.Key()
		if prev, dup := index[k]; dup {
			return fail("section terms: term %d duplicates term %d (%s)", i, prev, t)
		}
		index[k] = ID(i)
	}

	// The vocabulary IDs must be exactly what Intern would have produced
	// for this term sequence (the last term whose value matches wins,
	// mirroring Intern's switch).
	wantType, wantSub, wantLabel := None, None, None
	for i, t := range terms {
		switch t.Value() {
		case rdf.RDFType:
			wantType = ID(i)
		case rdf.RDFSSubClass:
			wantSub = ID(i)
		case rdf.RDFSLabel:
			wantLabel = ID(i)
		}
	}
	if rdfType != wantType || subClass != wantSub || labelPred != wantLabel {
		return fail("section meta: vocabulary IDs (%d,%d,%d) disagree with term dictionary (want %d,%d,%d)",
			rdfType, subClass, labelPred, wantType, wantSub, wantLabel)
	}

	// CSR offsets: monotone, anchored at 0, ending at the triple count.
	for _, c := range [2]struct {
		name string
		off  []uint32
	}{{"outOff", pt.outOff}, {"inOff", pt.inOff}} {
		if c.off[0] != 0 {
			return fail("section %s: first offset %d, want 0", c.name, c.off[0])
		}
		for v := 1; v < len(c.off); v++ {
			if c.off[v] < c.off[v-1] {
				return fail("section %s: offset %d decreases (%d after %d)", c.name, v, c.off[v], c.off[v-1])
			}
		}
		if last := c.off[len(c.off)-1]; last != nT {
			return fail("section %s: final offset %d, want triple count %d", c.name, last, nT)
		}
	}
	if pt.predOff[0] != 0 {
		return fail("section predOff: first offset %d, want 0", pt.predOff[0])
	}
	for i := 1; i < len(pt.predOff); i++ {
		if pt.predOff[i] <= pt.predOff[i-1] {
			return fail("section predOff: offset %d not strictly increasing (every predicate has at least one triple)", i)
		}
	}
	if last := pt.predOff[len(pt.predOff)-1]; last != nT {
		return fail("section predOff: final offset %d, want triple count %d", last, nT)
	}

	// Predicate-major groups define the triple set: strictly ascending
	// predicates, each group strictly (S,O)-sorted with matching P.
	trip := make(map[Spo]struct{}, nTriples)
	for i, p := range pt.predIDs {
		if int(p) >= n {
			return fail("section predIDs: predicate %d out of range (%d terms)", p, n)
		}
		if i > 0 && p <= pt.predIDs[i-1] {
			return fail("section predIDs: not strictly ascending at index %d", i)
		}
		group := pt.predTriples[pt.predOff[i]:pt.predOff[i+1]]
		for j, spo := range group {
			if spo.P != p {
				return fail("section predTriples: triple %d of predicate %d has P=%d", j, p, spo.P)
			}
			if int(spo.S) >= n || int(spo.O) >= n {
				return fail("section predTriples: triple %d of predicate %d references term out of range (%d terms)", j, p, n)
			}
			if j > 0 {
				prev := group[j-1]
				if spo.S < prev.S || (spo.S == prev.S && spo.O <= prev.O) {
					return fail("section predTriples: group of predicate %d not strictly (S,O)-sorted at index %d", p, j)
				}
			}
			trip[spo] = struct{}{}
		}
	}

	// Adjacency spans: in range, strictly (Pred,To)-sorted, and every edge
	// must be a triple the predicate-major view also knows — combined with
	// the equal counts already enforced, the three views describe the same
	// triple set, so the loaded snapshot and the rebuilt builder cannot
	// silently diverge.
	for _, c := range [2]struct {
		name  string
		off   []uint32
		edges []Edge
		in    bool
	}{{"outEdges", pt.outOff, pt.outEdges, false}, {"inEdges", pt.inOff, pt.inEdges, true}} {
		for v := 0; v < n; v++ {
			span := c.edges[c.off[v]:c.off[v+1]]
			for j, e := range span {
				if int(e.Pred) >= n || int(e.To) >= n {
					return fail("section %s: edge %d of vertex %d references term out of range (%d terms)", c.name, j, v, n)
				}
				if j > 0 {
					prev := span[j-1]
					if e.Pred < prev.Pred || (e.Pred == prev.Pred && e.To <= prev.To) {
						return fail("section %s: span of vertex %d not strictly (Pred,To)-sorted at index %d", c.name, v, j)
					}
				}
				spo := Spo{S: ID(v), P: e.Pred, O: e.To}
				if c.in {
					spo = Spo{S: e.To, P: e.Pred, O: ID(v)}
				}
				if _, ok := trip[spo]; !ok {
					return fail("section %s: edge %d of vertex %d is not in the predicate index", c.name, j, v)
				}
			}
		}
	}

	// Signatures are derived state: recompute and compare instead of trust.
	for v := 0; v < n; v++ {
		var want [2]uint64
		for _, span := range [2][]Edge{parts.outSpan(ID(v)), parts.inSpan(ID(v))} {
			for _, e := range span {
				lo, hi := sigBits(e.Pred)
				want[0] |= lo
				want[1] |= hi
			}
		}
		if pt.sig[v] != want {
			return fail("section sig: vertex %d signature %x, derived %x", v, pt.sig[v], want)
		}
	}

	// Roles: everything except the class bit is derivable and must match
	// exactly. The class bit is genuine state (classification is monotone:
	// a vertex stays a class even after its last type edge is removed), so
	// it is trusted — but it must at least cover the classes the surviving
	// triples imply.
	isPred := make([]bool, n)
	for _, p := range pt.predIDs {
		isPred[p] = true
	}
	stats := Stats{Triples: nTriples, Predicates: len(pt.predIDs)}
	var wantEnts []ID
	for v := 0; v < n; v++ {
		stored := pt.roles[v]
		var r uint8
		t := terms[v]
		switch {
		case t.IsIRI():
			r |= roleIRI
		case t.IsLiteral():
			r |= roleLiteral
			stats.Literals++
		}
		r |= stored & roleClass
		if isPred[v] {
			r |= rolePred
		}
		deg := pt.outOff[v+1] - pt.outOff[v] + pt.inOff[v+1] - pt.inOff[v]
		if r&roleIRI != 0 && r&(roleClass|rolePred) == 0 && deg > 0 {
			r |= roleEntity
			wantEnts = append(wantEnts, ID(v))
			stats.Entities++
		}
		if r != stored {
			return fail("section roles: vertex %d has roles %#02x, derived %#02x", v, stored, r)
		}
		if stored&roleClass != 0 {
			stats.Classes++
		}
	}
	if len(wantEnts) != len(pt.entities) {
		return fail("section entities: %d entities, derived %d", len(pt.entities), len(wantEnts))
	}
	for i := range wantEnts {
		if pt.entities[i] != wantEnts[i] {
			return fail("section entities: entry %d is %d, derived %d", i, pt.entities[i], wantEnts[i])
		}
	}
	// K = 1: a predicate has at most one group.
	group := func(p ID) []Spo {
		if gs := parts.predGroups(p); len(gs) > 0 {
			return gs[0]
		}
		return nil
	}
	for _, spo := range group(rdfType) {
		if pt.roles[spo.O]&roleClass == 0 {
			return fail("section roles: vertex %d is an rdf:type object but lacks the class role", spo.O)
		}
	}
	for _, spo := range group(subClass) {
		if pt.roles[spo.S]&roleClass == 0 || pt.roles[spo.O]&roleClass == 0 {
			return fail("section roles: rdfs:subClassOf endpoints %d/%d lack the class role", spo.S, spo.O)
		}
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
	g.triples = trip
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
	pt.literals = stats.Literals
	g.gen.Store(pt.gen)
	g.snap.Store(&Snapshot{
		gen: pt.gen, k: 1, terms: terms, rd: parts, parts: parts,
		rdfType: rdfType, nTriples: nTriples, predIDs: pt.predIDs,
		entities: pt.entities, stats: stats, bytes: pt.bytes,
	})
	return g, nil
}
