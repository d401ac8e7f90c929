package store

// The term table: the dictionary that turns terms into the dense IDs every
// other structure is written in (PAPER.md S2: strings are needed only to
// link a question and to render an answer). It is columns, not a slice of
// rdf.Term: one string arena holding every term's value back to back, an
// offset and a tag per term, and an open-addressed index of IDs. HDT's
// dictionary (Fernández et al., JWS 2013) is the published form of a term
// table as one block. An IRI is held in its N-Triples form, between "<"
// and ">", so an answer or a SPARQL rendering takes its bracketed bytes
// as a substring of the arena; its value is the substring inside them.
//
// Contract: the arena is append-only. Interning writes past the arena's
// length and never rewrites a byte below it, and the columns only grow, so
// a copy of the table taken at a freeze (frozen) stays a valid, immutable
// dictionary of the terms it saw while the graph interns more: the copy's
// string and slices end where the table ended, and later writes land
// beyond them — in spare capacity, or in a new buffer when the arena
// grows, leaving the copy's buffer to the copy.

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strings"

	"gqa/internal/rdf"
)

// A tag holds a term's kind in its low bits, a flag that its extra is a
// language tag rather than a datatype, and above them the index of its
// extra in termTable.extras (0: none).
const (
	tagKind    = 3
	tagLang    = 4
	tagExtraAt = 3
)

// termTable is the term dictionary: the graph's, a snapshot's frozen copy,
// a loaded file's and a remote coordinator's. The zero value is an empty
// table.
type termTable struct {
	buf   *strings.Builder // the arena interning appends to; nil in a frozen copy
	arena string           // buf's bytes: term i is arena[off[i]:off[i+1]], an IRI bracketed
	off   []uint32         // len(tag)+1 offsets into arena once a term is in
	tag   []uint32         // per term: kind, language flag, extras index

	// The distinct datatypes and language tags, extras[0] = "" once a term
	// is in, and their positions.
	extras  []string
	extraAt map[string]uint32

	// index is open-addressed with linear probing: a slot holds ID+1, 0 is
	// empty; a power of two at most ¾ full, nil in a frozen copy.
	index []uint32
	seed  maphash.Seed
}

// termParts splits a term into what the table stores: its tag's kind and
// language flag, its value and its extra (a literal's language tag or
// datatype; rdf.Term never carries both).
func termParts(x rdf.Term) (kl uint32, value, extra string) {
	if x.Lang() != "" {
		return uint32(x.Kind()) | tagLang, x.Value(), x.Lang()
	}
	return uint32(x.Kind()), x.Value(), x.Datatype()
}

// len is the number of terms.
func (t *termTable) len() int { return len(t.tag) }

// value returns term id's value: an IRI (inside its brackets), a
// literal's lexical form or a blank node's label, a substring of the arena.
func (t *termTable) value(id ID) string {
	lo, hi := t.off[id], t.off[id+1]
	if t.tag[id]&tagKind == uint32(rdf.KindIRI) {
		lo, hi = lo+1, hi-1
	}
	return t.arena[lo:hi]
}

// bracketed returns IRI id in N-Triples syntax, "<" + IRI + ">": the
// arena's own bytes, so it allocates nothing. id must be an IRI.
func (t *termTable) bracketed(id ID) string { return t.arena[t.off[id]:t.off[id+1]] }

// kind returns term id's kind.
func (t *termTable) kind(id ID) rdf.Kind { return rdf.Kind(t.tag[id] & tagKind) }

// extra returns term id's language tag or datatype, "" for none.
func (t *termTable) extra(id ID) string { return t.extras[t.tag[id]>>tagExtraAt] }

// term assembles term id from the columns; its strings are the arena's
// and the extras table's, so it allocates nothing, and it inlines. It
// panics on an ID that was never interned.
func (t *termTable) term(id ID) rdf.Term {
	tag := t.tag[id]
	dt, lang := t.extras[tag>>tagExtraAt], ""
	if tag&tagLang != 0 {
		dt, lang = "", dt
	}
	return rdf.NewTerm(rdf.Kind(tag&tagKind), t.value(id), dt, lang)
}

// lookup returns x's ID, or None when x was never interned.
func (t *termTable) lookup(x rdf.Term) ID {
	if len(t.index) == 0 {
		return None
	}
	kl, value, extra := termParts(x)
	_, id := t.find(kl, value, extra)
	return id
}

// intern returns x's ID, appending x to the table on first sight.
func (t *termTable) intern(x rdf.Term) (ID, bool) {
	if n := len(t.tag) + 1; 4*n > 3*len(t.index) {
		t.rehash(indexSize(n))
	}
	kl, value, extra := termParts(x)
	slot, id := t.find(kl, value, extra)
	if id != None {
		return id, false
	}
	id = t.add(kl, value, extraID(t, extra))
	t.index[slot] = uint32(id) + 1
	return id, true
}

// add appends a term to the columns and the arena, an IRI between its
// brackets, not to the index.
func (t *termTable) add(kl uint32, value string, extra uint32) ID {
	if t.buf == nil {
		t.buf = new(strings.Builder)
	}
	iri := kl&tagKind == uint32(rdf.KindIRI)
	if t.buf.Len()+len(value)+2 > math.MaxUint32 {
		panic("store: the term arena exceeds 4 GiB")
	}
	if len(t.off) == 0 {
		t.off = append(t.off, 0)
	}
	if t.extras == nil {
		t.extras = noExtras
	}
	if iri {
		t.buf.WriteByte('<')
		t.buf.WriteString(value)
		t.buf.WriteByte('>')
	} else {
		t.buf.WriteString(value)
	}
	t.arena = t.buf.String()
	t.off = append(t.off, uint32(len(t.arena)))
	t.tag = append(t.tag, kl|extra<<tagExtraAt)
	return ID(len(t.tag) - 1)
}

// noExtras is the extras table of a table whose literals carry no
// datatype or language tag. Its capacity is its length, so the first
// extra appended copies it.
var noExtras = []string{""}

// extraID returns extra's position in the extras table, adding a copy of
// it on first sight; 0 for "".
func extraID[S string | []byte](t *termTable, extra S) uint32 {
	if len(extra) == 0 {
		return 0
	}
	if i, ok := t.extraAt[string(extra)]; ok {
		return i
	}
	if t.extraAt == nil {
		t.extras, t.extraAt = noExtras, make(map[string]uint32)
	}
	if len(t.extras) >= 1<<(32-tagExtraAt) {
		panic("store: too many distinct datatypes and language tags")
	}
	s := strings.Clone(string(extra))
	t.extras = append(t.extras, s)
	t.extraAt[s] = uint32(len(t.extras) - 1)
	return uint32(len(t.extras) - 1)
}

// hash mixes a term's parts: the value, the kind and language flag, and
// the extra.
func (t *termTable) hash(kl uint32, value, extra string) uint64 {
	h := maphash.String(t.seed, value) ^ uint64(kl)
	if extra != "" {
		h ^= bits.RotateLeft64(maphash.String(t.seed, extra), 29)
	}
	return h
}

// find probes for a term: the slot holding its ID, or the empty slot where
// it would go and None.
func (t *termTable) find(kl uint32, value, extra string) (int, ID) {
	mask := len(t.index) - 1
	for slot := int(t.hash(kl, value, extra)) & mask; ; slot = (slot + 1) & mask {
		e := t.index[slot]
		if e == 0 {
			return slot, None
		}
		id := ID(e - 1)
		if t.tag[id]&(tagKind|tagLang) == kl && t.value(id) == value && t.extra(id) == extra {
			return slot, id
		}
	}
}

// indexSize is the least power of two, at least 8, that n IDs fill at
// most ¾ of.
func indexSize(n int) int {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// rehash rebuilds the index at size slots over every term in the columns.
// It reports the first term that repeats an earlier one and that one's ID,
// or -1: interning never makes one, a decoded file may.
func (t *termTable) rehash(size int) (int, ID) {
	if t.index == nil {
		t.seed = maphash.MakeSeed()
	}
	t.index = make([]uint32, size)
	for i, tag := range t.tag {
		id := ID(i)
		slot, prev := t.find(tag&(tagKind|tagLang), t.value(id), t.extra(id))
		if prev != None {
			return i, prev
		}
		t.index[slot] = uint32(i) + 1
	}
	return -1, None
}

// frozen returns the snapshot's copy: the arena and the columns as they
// stand, and no index, which a later intern rewrites in place. Nothing is
// copied; see the append-only contract above.
func (t *termTable) frozen() termTable {
	return termTable{arena: t.arena, off: t.off, tag: t.tag, extras: t.extras}
}

// newTermTable builds a table of terms in order, IDs their positions, IRIs
// bracketed: a remote coordinator's copy of its graph's dictionary
// (DialShards). It has
// no index: a snapshot resolves IDs, it does not look terms up.
func newTermTable(terms []rdf.Term) termTable {
	var t termTable
	for _, x := range terms {
		kl, value, extra := termParts(x)
		t.add(kl, value, extraID(&t, extra))
	}
	return t.frozen()
}

// bytes is the table's resident size: the arena, the columns, the index
// and the extras' text.
func (t *termTable) bytes() int64 {
	n := int64(len(t.arena)) + 4*int64(len(t.off)+len(t.tag)+len(t.index))
	for _, x := range t.extras {
		n += int64(len(x))
	}
	return n
}

// terms copies the table out as rdf.Terms, index = ID.
func (t *termTable) terms() []rdf.Term {
	out := make([]rdf.Term, t.len())
	for i := range out {
		out[i] = t.term(ID(i))
	}
	return out
}

// encodeFrozenTerms is the GQAFRZ1 terms section: a uint32 count, then per
// term its kind byte and its value, datatype and language tag, each a
// uint32 length and the bytes. An IRI's value is written without its
// brackets.
func encodeFrozenTerms(t *termTable) []byte {
	tb := binary.LittleEndian.AppendUint32(nil, uint32(t.len()))
	for i := range t.len() {
		x := t.term(ID(i))
		tb = append(tb, byte(x.Kind()))
		for _, s := range [3]string{x.Value(), x.Datatype(), x.Lang()} {
			tb = binary.LittleEndian.AppendUint32(tb, uint32(len(s)))
			tb = append(tb, s...)
		}
	}
	return tb
}

// decodeFrozenTerms decodes the terms payload, which must hold exactly
// want records, into a table without an index (assembleFrozen builds it
// and refuses a repeated term). A first pass checks every record and
// fills the offset and tag columns; the second writes each value, an IRI
// between brackets, into one arena grown once to their size: no string per
// term.
func decodeFrozenTerms(b []byte, want uint64) (termTable, error) {
	var t termTable
	count := uint64(binary.LittleEndian.Uint32(b))
	if count != want {
		return t, fmt.Errorf("%d terms, meta says %d", count, want)
	}
	// Every record is at least 13 bytes (kind + three length fields), so an
	// inflated count is rejected before any allocation proportional to it.
	if count*13 > uint64(len(b)-4) {
		return t, fmt.Errorf("term count %d exceeds payload size %d", count, len(b))
	}
	off := 4
	// field reads the length-prefixed field at off; false when it runs
	// past the payload.
	field := func() ([]byte, bool) {
		if off+4 > len(b) {
			return nil, false
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l > len(b)-off {
			return nil, false
		}
		off += l
		return b[off-l : off], true
	}
	t.off, t.tag, t.extras = make([]uint32, 1, count+1), make([]uint32, 0, count), noExtras
	for i := range int(count) {
		if off >= len(b) {
			return t, fmt.Errorf("term %d truncated", i)
		}
		kind := rdf.Kind(b[off])
		off++
		value, ok1 := field()
		dt, ok2 := field()
		lang, ok3 := field()
		if !ok1 || !ok2 || !ok3 {
			return t, fmt.Errorf("term %d truncated", i)
		}
		tag := uint32(kind)
		switch kind {
		case rdf.KindIRI, rdf.KindBlank:
			if len(dt) != 0 || len(lang) != 0 {
				return t, fmt.Errorf("term %d: non-literal carries datatype/lang", i)
			}
		case rdf.KindLiteral:
			switch {
			case len(dt) != 0 && len(lang) != 0:
				return t, fmt.Errorf("term %d: literal carries both datatype and lang", i)
			case len(lang) != 0:
				tag |= tagLang | extraID(&t, lang)<<tagExtraAt
			default:
				tag |= extraID(&t, dt) << tagExtraAt
			}
		default:
			return t, fmt.Errorf("term %d has unknown kind %d", i, kind)
		}
		end := uint64(t.off[i]) + uint64(len(value))
		if kind == rdf.KindIRI {
			end += 2
		}
		if end > math.MaxUint32 {
			return t, fmt.Errorf("term %d: the values exceed the arena's 4 GiB", i)
		}
		t.off, t.tag = append(t.off, uint32(end)), append(t.tag, tag)
	}
	if off != len(b) {
		return t, fmt.Errorf("%d trailing bytes", len(b)-off)
	}
	if count == 0 {
		return termTable{}, nil // as a graph that interned nothing
	}
	t.buf = new(strings.Builder)
	t.buf.Grow(int(t.off[count]))
	for off = 4; off < len(b); {
		iri := rdf.Kind(b[off]) == rdf.KindIRI
		off++
		value, _ := field()
		if iri {
			t.buf.WriteByte('<')
			t.buf.Write(value)
			t.buf.WriteByte('>')
		} else {
			t.buf.Write(value)
		}
		field() // the datatype
		field() // the language tag
	}
	t.arena = t.buf.String()
	return t, nil
}
