package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gqa/internal/rdf"
)

// tinyFrozenGraph is a small deterministic graph exercising every section:
// entities, classes via rdf:type and rdfs:subClassOf, labels, a typed and a
// lang literal, and a removed triple (so class monotonicity is on disk).
func tinyFrozenGraph() *Graph {
	g := New()
	a := g.Intern(rdf.Resource("a"))
	b := g.Intern(rdf.Resource("b"))
	c := g.Intern(rdf.Resource("c"))
	p := g.Intern(rdf.Ontology("p"))
	q := g.Intern(rdf.Ontology("q"))
	typeID := g.Intern(rdf.NewIRI(rdf.RDFType))
	labelID := g.Intern(rdf.NewIRI(rdf.RDFSLabel))
	subID := g.Intern(rdf.NewIRI(rdf.RDFSSubClass))
	classA := g.Intern(rdf.Ontology("ClassA"))
	classB := g.Intern(rdf.Ontology("ClassB"))
	lit := g.Intern(rdf.NewLiteral("Anna"))
	tlit := g.Intern(rdf.NewTypedLiteral("1960", "http://www.w3.org/2001/XMLSchema#gYear"))
	llit := g.Intern(rdf.NewLangLiteral("Anne", "en"))
	g.AddSPO(a, p, b)
	g.AddSPO(b, p, c)
	g.AddSPO(a, q, c)
	g.AddSPO(c, q, a)
	g.AddSPO(a, typeID, classA)
	g.AddSPO(b, typeID, classB)
	g.AddSPO(classA, subID, classB)
	g.AddSPO(a, labelID, lit)
	g.AddSPO(b, q, tlit)
	g.AddSPO(c, labelID, llit)
	// Class monotonicity: c was typed once; the class edge is retracted but
	// classB keeps its class role.
	g.AddSPO(c, typeID, classB)
	g.Remove(c, typeID, classB)
	return g
}

func saveFrozenBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveFrozen(&buf, g); err != nil {
		t.Fatalf("SaveFrozen: %v", err)
	}
	return buf.Bytes()
}

// savePartBytes shards g k ways (unless it already is) and returns the
// file of part shard.
func savePartBytes(tb testing.TB, g *Graph, k, shard int) []byte {
	tb.Helper()
	if g.NumShards() != k {
		g.SetShards(k)
	}
	var buf bytes.Buffer
	if err := SaveShardPart(&buf, g, shard); err != nil {
		tb.Fatalf("SaveShardPart(%d/%d): %v", shard, k, err)
	}
	return buf.Bytes()
}

// refixChecksums recomputes every section CRC, the content hash, and the
// header CRC of a file in place from the lengths its directory declares —
// so a test can corrupt a payload byte while keeping the checksums
// internally consistent, forcing rejection through semantic validation
// rather than a CRC mismatch.
func refixChecksums(b []byte) {
	crcOff := frzHeaderSize - 4
	off := frzHeaderSize
	for i := 0; i < frzSectionCount; i++ {
		d := frzHeaderFixed + i*frzDirEntrySize
		length := int(binary.LittleEndian.Uint64(b[d : d+8]))
		binary.LittleEndian.PutUint32(b[d+8:d+12], crc32.ChecksumIEEE(b[off:off+length]))
		off += length
	}
	binary.LittleEndian.PutUint64(b[frzHeaderFixed-8:frzHeaderFixed], frzContentHash(b[frzHeaderFixed:crcOff]))
	binary.LittleEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[:crcOff]))
}

// sectionRange returns the payload byte range of section sec.
func sectionRange(b []byte, sec int) (int, int) {
	off := frzHeaderSize
	for i := 0; i < sec; i++ {
		d := frzHeaderFixed + i*frzDirEntrySize
		off += int(binary.LittleEndian.Uint64(b[d : d+8]))
	}
	d := frzHeaderFixed + sec*frzDirEntrySize
	return off, off + int(binary.LittleEndian.Uint64(b[d:d+8]))
}

// TestFrozenDiskDifferential is the load-vs-rebuild harness: random rich
// graphs → SaveFrozen → LoadFrozen must reproduce the in-memory Snapshot
// field-for-field (reflect.DeepEqual over every CSR array, role,
// stat, and the generation), re-serialize byte-identically (the format is
// canonical), and give a graph that answers every read operation like a
// never-frozen twin of the original.
func TestFrozenDiskDifferential(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, twin := twinGraphs(seed)
		// A few removals so monotone class state and retracted instances are
		// part of what round-trips.
		sn0 := g.Freeze()
		var spos []Spo // in (P, S, O) order
		sn0.Match(Any, Any, Any, func(spo Spo) bool { spos = append(spos, spo); return true })
		for i := 0; i < 3 && i < len(spos); i++ {
			spo := spos[i*len(spos)/3]
			g.Remove(spo.S, spo.P, spo.O)
			twin.Remove(spo.S, spo.P, spo.O)
		}
		sn := g.Freeze()

		raw := saveFrozenBytes(t, g)
		g2, err := LoadFrozen(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("seed %d: LoadFrozen: %v", seed, err)
		}
		sn2 := g2.Frozen()
		if sn2 == nil {
			t.Fatalf("seed %d: loaded graph has no installed snapshot (first Frozen() must be free)", seed)
		}
		if !reflect.DeepEqual(sn, sn2) {
			t.Fatalf("seed %d: loaded snapshot differs from the freshly frozen original", seed)
		}
		if g2.Generation() != g.Generation() {
			t.Fatalf("seed %d: generation %d, want %d", seed, g2.Generation(), g.Generation())
		}
		raw2 := saveFrozenBytes(t, g2)
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("seed %d: re-serialized snapshot is not byte-identical", seed)
		}

		// The loaded graph: every read op must agree with the twin.
		neverFrozen(t, twin)
		n := twin.NumTerms()
		if g2.NumTerms() != n || g2.NumTriples() != twin.NumTriples() || g2.NumPredicates() != twin.NumPredicates() {
			t.Fatalf("seed %d: size mismatch after load", seed)
		}
		sortedCopy := func(es []Edge) []Edge {
			es = append([]Edge(nil), es...)
			sortEdges(es)
			return es
		}
		for v := 0; v < n; v++ {
			id := ID(v)
			if got, ok := g2.Lookup(twin.Term(id)); !ok || got != id {
				t.Fatalf("seed %d: term %d not found at same ID after load", seed, v)
			}
			if !edgesEqual(sortedCopy(twin.Out(id)), g2.Out(id)) {
				t.Fatalf("seed %d: out adjacency of %d differs", seed, v)
			}
			if !edgesEqual(sortedCopy(twin.In(id)), g2.In(id)) {
				t.Fatalf("seed %d: in adjacency of %d differs", seed, v)
			}
			if twin.IsClass(id) != g2.IsClass(id) || twin.IsEntity(id) != g2.IsEntity(id) || twin.Degree(id) != g2.Degree(id) {
				t.Fatalf("seed %d: role or degree of %d differs", seed, v)
			}
			if !reflect.DeepEqual(sortedIDs(typesOf(twin, id)), typesOf(g2, id)) {
				t.Fatalf("seed %d: types of %d differ", seed, v)
			}
			if twin.LabelOf(id) != g2.LabelOf(id) || twin.PredCount(id) != g2.PredCount(id) {
				t.Fatalf("seed %d: LabelOf/PredCount(%d) differs", seed, v)
			}
		}
		for _, c := range twin.Classes() {
			if want, got := sortedIDs(instancesOf(twin, c)), instancesOf(g2, c); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: instances of %d = %v, twin %v", seed, c, got, want)
			}
		}
		twin.Match(Any, Any, Any, func(spo Spo) bool {
			if !g2.Has(spo.S, spo.P, spo.O) {
				t.Fatalf("seed %d: triple %v missing after load", seed, spo)
			}
			return true
		})
		if !reflect.DeepEqual(twin.Stats(), g2.Stats()) || !reflect.DeepEqual(twin.Entities(), g2.Entities()) {
			t.Fatalf("seed %d: stats or entities differ", seed)
		}
	}
}

func sortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].Pred < es[j-1].Pred || (es[j].Pred == es[j-1].Pred && es[j].To < es[j-1].To)); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFrozenLoadedGraphMutates proves the loaded graph is a first-class
// mutable graph: identical Remove/Intern/Add sequences applied to the
// original and the loaded copy re-freeze to identical snapshots, and the
// in-place Remove never corrupts neighboring spans of the shared backing
// arrays (nor the immutable snapshot they were copied from).
func TestFrozenLoadedGraphMutates(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		g := randomRichGraph(r)
		sn := g.Freeze()
		raw := saveFrozenBytes(t, g)
		g2, err := LoadFrozen(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("seed %d: LoadFrozen: %v", seed, err)
		}
		nBefore := sn.nTriples

		mutate := func(gg *Graph) {
			var spos []Spo // in (P, S, O) order
			sn.Match(Any, Any, Any, func(spo Spo) bool { spos = append(spos, spo); return true })
			for i := 0; i < 4 && i < len(spos); i++ {
				spo := spos[i*len(spos)/4]
				if !gg.Remove(spo.S, spo.P, spo.O) {
					t.Fatalf("seed %d: Remove reported triple absent", seed)
				}
			}
			fresh := gg.Intern(rdf.Resource("fresh-after-load"))
			gg.AddSPO(spos[0].S, spos[0].P, fresh)
			gg.AddSPO(fresh, spos[0].P, spos[0].O)
		}
		mutate(g)
		mutate(g2)
		if g2.Frozen() != nil {
			t.Fatalf("seed %d: snapshot still installed after mutation", seed)
		}
		a, b := g.Freeze(), g2.Freeze()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: re-frozen snapshots diverge after identical mutations", seed)
		}
		// The snapshot handed out before mutation is immutable: it must
		// still describe the pre-mutation triple count.
		if sn.nTriples != nBefore {
			t.Fatalf("seed %d: pre-mutation snapshot changed under mutation", seed)
		}
	}
}

// TestFrozenEmptyGraph round-trips a graph with no terms and no triples.
func TestFrozenEmptyGraph(t *testing.T) {
	g := New()
	raw := saveFrozenBytes(t, g)
	g2, err := LoadFrozen(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadFrozen(empty): %v", err)
	}
	if g2.NumTerms() != 0 || g2.NumTriples() != 0 || g2.Frozen() == nil {
		t.Fatalf("empty graph round trip: terms=%d triples=%d frozen=%v", g2.NumTerms(), g2.NumTriples(), g2.Frozen() != nil)
	}
	if !reflect.DeepEqual(g.Frozen(), g2.Frozen()) {
		t.Fatalf("empty snapshots differ")
	}
}

// TestFrozenCorruptionMatrix is the hostile-input battery, run over both
// kinds of file through their own entry points: every truncation point,
// every single-bit flip, every directory length lie, and every
// checksum-consistent payload bit flip must be rejected with an error —
// never a panic, never a silently wrong graph. The only bits exempt from
// the last battery are the ones the format documents as authoritative,
// which only the CRC layer protects: the term bytes and the class role at
// K=1 (classification is monotone — a class survives losing its last type
// edge — so a flipped class bit that leaves the entity derivation unchanged
// describes a different valid graph); for a part of K>1, which has no term
// dictionary to check against, also the term-kind and predicate role bits,
// in-edges whose subject another part owns and out-edges whose object
// another part owns (their bytes, and which owned vertex's span an offset
// puts them in: the part holds each of them once), and the global facts in
// meta (generations, term/triple counts, rdf:type ID, stats).
func TestFrozenCorruptionMatrix(t *testing.T) {
	const partK, partShard = 3, 1
	loadFrozen := func(b []byte) error { _, err := LoadFrozen(bytes.NewReader(b)); return err }
	loadPart := func(b []byte) error { _, err := LoadShardPart(bytes.NewReader(b)); return err }
	files := []struct {
		name          string
		valid         []byte
		load          func([]byte) error
		authoritative func(valid []byte, sec, off, bit int) bool // off is relative to the section
	}{
		{"K=1 file", saveFrozenBytes(t, tinyFrozenGraph()), loadFrozen,
			func(_ []byte, sec, _, bit int) bool {
				return sec == frzTerms || (sec == frzRoles && uint8(1<<bit) == roleClass)
			}},
		{"part 1 of K=3", savePartBytes(t, randomRichGraph(rand.New(rand.NewSource(3))), partK, partShard), loadPart,
			func(valid []byte, sec, off, bit int) bool {
				switch sec {
				case frzMeta: // all but shard, k and the owned literal count
					return (off >= 8 && off < 44) || off >= 52
				case frzRoles:
					return uint8(1<<bit) < roleEntity
				case frzInEdges, frzOutEdges: // an edge whose other end is foreign
					lo, _ := sectionRange(valid, sec)
					other := binary.LittleEndian.Uint32(valid[lo+off/8*8+4:])
					return other%partK != partShard
				case frzInOff, frzOutOff: // a boundary moved across edges whose other end is foreign only
					lo, _ := sectionRange(valid, sec)
					old := binary.LittleEndian.Uint32(valid[lo+off/4*4:])
					moved := old ^ 1<<(off%4*8+bit)
					elo, ehi := sectionRange(valid, sec+1)
					if int(max(old, moved)) > (ehi-elo)/8 {
						return false
					}
					for e := min(old, moved); e < max(old, moved); e++ {
						if binary.LittleEndian.Uint32(valid[elo+int(e)*8+4:])%partK == partShard {
							return false
						}
					}
					return true
				}
				return false
			}},
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			valid := f.valid
			if err := f.load(valid); err != nil {
				t.Fatalf("valid file rejected: %v", err)
			}
			mustFail := func(what string, data []byte) {
				t.Helper()
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: loader panicked: %v", what, p)
					}
				}()
				if err := f.load(data); err == nil {
					t.Fatalf("%s: corrupt file accepted", what)
				}
			}

			// Every truncation point, including the empty file.
			for i := 0; i < len(valid); i++ {
				mustFail(fmt.Sprintf("truncate at %d", i), valid[:i])
			}
			// Trailing garbage after a valid stream.
			mustFail("trailing byte", append(append([]byte(nil), valid...), 0x00))

			// Every single-bit flip anywhere in the file: the header CRC covers the
			// header and directory, the per-section CRCs cover every payload byte.
			for i := 0; i < len(valid); i++ {
				for bit := 0; bit < 8; bit++ {
					mut := append([]byte(nil), valid...)
					mut[i] ^= 1 << bit
					mustFail(fmt.Sprintf("bit flip at byte %d bit %d", i, bit), mut)
				}
			}

			// Directory length lies, with the header CRC re-fixed so the lie itself
			// is reachable: the cross-section length checks (ragged lengths
			// included) or the section CRCs must reject it.
			for sec := 0; sec < frzSectionCount; sec++ {
				d := frzHeaderFixed + sec*frzDirEntrySize
				orig := binary.LittleEndian.Uint64(valid[d : d+8])
				for _, lie := range []uint64{0, orig + 1, orig * 2, orig + 12, 1 << 40} {
					if lie == orig {
						continue
					}
					mut := append([]byte(nil), valid...)
					binary.LittleEndian.PutUint64(mut[d:d+8], lie)
					binary.LittleEndian.PutUint32(mut[frzHeaderSize-4:frzHeaderSize], crc32.ChecksumIEEE(mut[:frzHeaderSize-4]))
					mustFail(fmt.Sprintf("section %s length %d→%d", frzSectionNames[sec], orig, lie), mut)
				}
			}

			// Checksum-consistent corruption: flip one payload bit, then re-fix
			// every CRC and the content hash. The semantic validation pass must
			// still reject, with an error that says where — this is the "no silent
			// wrong answers" guarantee.
			for sec := 0; sec < frzSectionCount; sec++ {
				lo, hi := sectionRange(valid, sec)
				for off := lo; off < hi; off++ {
					for bit := 0; bit < 8; bit++ {
						if f.authoritative(valid, sec, off-lo, bit) {
							continue
						}
						mut := append([]byte(nil), valid...)
						mut[off] ^= 1 << bit
						refixChecksums(mut)
						err := f.load(mut)
						if err == nil {
							t.Fatalf("section %s: consistent corruption at byte %d bit %d accepted", frzSectionNames[sec], off-lo, bit)
						}
						if msg := err.Error(); !strings.Contains(msg, "section ") || !strings.Contains(msg, "byte offset ") {
							t.Fatalf("section %s byte %d bit %d: error does not name a section and byte offset: %v", frzSectionNames[sec], off-lo, bit, err)
						}
					}
				}
			}

			// Version and magic tampering with a re-fixed header CRC: the file
			// of the previous version (it had eleven sections) and of the next
			// are refused by the version message, which names both versions;
			// a foreign magic is named in the error.
			for _, v := range []uint32{frozenVersion - 1, frozenVersion + 1} {
				mut := append([]byte(nil), valid...)
				binary.LittleEndian.PutUint32(mut[8:12], v)
				binary.LittleEndian.PutUint32(mut[frzHeaderSize-4:frzHeaderSize], crc32.ChecksumIEEE(mut[:frzHeaderSize-4]))
				want := fmt.Sprintf("version %d is not readable by this build (version %d)", v, frozenVersion)
				if err := f.load(mut); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("file stamped version %d: err = %v, want %q", v, err, want)
				}
			}
			mut := append([]byte(nil), valid...)
			copy(mut, "GQASNAP1")
			if err := f.load(mut); err == nil || !strings.Contains(err.Error(), "GQASNAP1") {
				t.Fatalf("wrong magic: err = %v, want one naming the magic found", err)
			}
		})
	}
}

// TestFrozenPredicateListCoverage: a part's predicate list is derived
// state — exactly its out edges' predicates, ascending. A file whose list
// has an entry that labels no out edge, or lacks one an out edge has, is
// refused with a positioned error at K = 1 and for a part of K = 3, though
// its checksums and lengths are consistent: Save writes the part as given.
func TestFrozenPredicateListCoverage(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(3)))
	for _, k := range []int{1, 3} {
		g.SetShards(k)
		sp := g.Freeze().Part(k / 2)
		ids := sp.part.predIDs
		unused := ID(0) // the least term that labels none of the part's out edges
		for i := 0; i < len(ids) && ids[i] == unused; i++ {
			unused++
		}
		extra := slices.Insert(slices.Clone(ids), int(unused), unused)
		for _, tc := range []struct {
			name string
			ids  []ID
			want string
		}{
			{"an entry that labels no out edge", extra, fmt.Sprintf("predicate %d labels no out edge", unused)},
			{"no entry for an out edge's predicate", ids[1:], "has a predicate the list lacks"},
		} {
			part := *sp.part
			part.predIDs = tc.ids
			bad := *sp
			bad.part = &part
			var buf bytes.Buffer
			if err := bad.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if k == 1 {
				_, err = LoadFrozen(&buf)
			} else {
				_, err = LoadShardPart(&buf)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "section predIDs (byte offset ") {
				t.Errorf("K=%d, a predicate list with %s: err = %v, want one naming %q in section predIDs", k, tc.name, err, tc.want)
			}
		}
	}
}

// TestFrozenWrongKind: both kinds of file share one container, so feeding
// one to the other's entry point must fail with a message that says which
// kind it was, not with a shape mismatch deep in validation.
func TestFrozenWrongKind(t *testing.T) {
	whole := saveFrozenBytes(t, tinyFrozenGraph())
	if _, err := LoadShardPart(bytes.NewReader(whole)); err == nil || !strings.Contains(err.Error(), "a K=1 snapshot, not a shard part") {
		t.Fatalf("LoadShardPart(K=1 file): err = %v", err)
	}
	part := savePartBytes(t, tinyFrozenGraph(), 4, 1)
	if _, err := LoadFrozen(bytes.NewReader(part)); err == nil || !strings.Contains(err.Error(), "part 1/4 of a sharded export, not a K=1 snapshot") {
		t.Fatalf("LoadFrozen(part 1/4): err = %v", err)
	}
}

// TestFrozenGenerationPreserved: the loaded graph reports the exact
// generation the snapshot was saved at, so generation-keyed caches stay
// valid across save/load.
func TestFrozenGenerationPreserved(t *testing.T) {
	g := tinyFrozenGraph()
	gen := g.Generation()
	if gen == 0 {
		t.Fatalf("test graph never mutated")
	}
	raw := saveFrozenBytes(t, g)
	g2, err := LoadFrozen(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadFrozen: %v", err)
	}
	if g2.Generation() != gen {
		t.Fatalf("generation %d, want %d", g2.Generation(), gen)
	}
	if g2.Frozen().Generation() != gen {
		t.Fatalf("snapshot generation %d, want %d", g2.Frozen().Generation(), gen)
	}
}

// TestFrozenSubClassOfEndsKeepTheClassRole: both ends of an rdfs:subClassOf
// edge are classes, and a K = 1 file whose roles say otherwise is refused.
// Here both ends are predicates as well, so a cleared class bit leaves the
// entity derivation as it was and only the subClassOf check can see it.
func TestFrozenSubClassOfEndsKeepTheClassRole(t *testing.T) {
	g := New()
	x, y := g.Intern(rdf.Ontology("X")), g.Intern(rdf.Ontology("Y"))
	g.AddSPO(x, g.Intern(rdf.NewIRI(rdf.RDFSSubClass)), y)
	g.AddSPO(x, x, y)
	g.AddSPO(y, y, x)
	valid := saveFrozenBytes(t, g)
	if _, err := LoadFrozen(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid file refused: %v", err)
	}
	lo, _ := sectionRange(valid, frzRoles)
	for _, v := range []ID{x, y} {
		mut := append([]byte(nil), valid...)
		mut[lo+int(v)] &^= roleClass
		refixChecksums(mut)
		if _, err := LoadFrozen(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "rdfs:subClassOf endpoints") {
			t.Errorf("vertex %d's class bit cleared: err = %v, want the subClassOf refusal", v, err)
		}
	}
}
