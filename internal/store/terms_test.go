package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
)

// The term table (terms.go) against the parent's dictionary
// (terms_reference_test.go): the same IDs for the same interning sequence,
// the same terms back, the same lookups — hits, misses and a value under
// another kind — the same vocabulary IDs, byte-identical GQAFRZ1 terms
// sections, the same decode and the same refusals, and snapshot copies that
// stay what they were while the graph interns on.

// termCover counts the hard cases a run of termCheck met.
type termCover struct {
	rehash, crossKind, datatype, lang, empty, afterFreeze int
}

// termCheck interns into a graph and into the reference side by side.
type termCheck struct {
	ref   *refTerms
	g     *Graph
	snaps []*Snapshot
	cover termCover
}

func newTermCheck() *termCheck { return &termCheck{ref: newRefTerms(), g: New()} }

// variants are terms whose value is x's under every kind and extra.
func variants(v string) [6]rdf.Term {
	return [6]rdf.Term{
		rdf.NewIRI(v), rdf.NewBlank(v), rdf.NewLiteral(v),
		rdf.NewLangLiteral(v, "en"), rdf.NewTypedLiteral(v, "en"), rdf.NewTypedLiteral(v, rdf.XSDString),
	}
}

func (c *termCheck) intern(x rdf.Term) error {
	_, known := c.ref.Lookup(x)
	if !known {
		for _, y := range variants(x.Value()) {
			if _, ok := c.ref.Lookup(y); ok && y.Kind() != x.Kind() {
				c.cover.crossKind++
				break
			}
		}
		if len(c.snaps) > 0 {
			c.cover.afterFreeze++
		}
	}
	slots := len(c.g.terms.index)
	want, got := c.ref.Intern(x), c.g.Intern(x)
	if slots > 0 && len(c.g.terms.index) != slots {
		c.cover.rehash++
	}
	switch {
	case x.Datatype() != "":
		c.cover.datatype++
	case x.Lang() != "":
		c.cover.lang++
	}
	if x.Value() == "" {
		c.cover.empty++
	}
	if got != want {
		return fmt.Errorf("%s interned as %d, the reference %d", x, got, want)
	}
	return nil
}

func (c *termCheck) freeze() { c.snaps = append(c.snaps, c.g.Freeze()) }

// check holds everything interned so far to the reference.
func (c *termCheck) check() error {
	ref, g := c.ref, c.g
	n := len(ref.terms)
	if g.NumTerms() != n {
		return fmt.Errorf("%d terms, the reference %d", g.NumTerms(), n)
	}
	for i, x := range ref.terms {
		id := ID(i)
		if got := g.Term(id); got != x {
			return fmt.Errorf("term %d is %#v, the reference %#v", i, got, x)
		}
		vs := variants(x.Value())
		for _, y := range append(vs[:], x) {
			wantID, wantOK := ref.Lookup(y)
			if gotID, gotOK := g.Lookup(y); gotID != wantID && (gotOK || wantOK) || gotOK != wantOK {
				return fmt.Errorf("lookup of %s: %d %v, the reference %d %v", y, gotID, gotOK, wantID, wantOK)
			}
		}
	}
	if g.rdfType != ref.rdfType || g.subClass != ref.subClass || g.labelPred != ref.labelPred {
		return fmt.Errorf("vocabulary IDs %d/%d/%d, the reference %d/%d/%d",
			g.rdfType, g.subClass, g.labelPred, ref.rdfType, ref.subClass, ref.labelPred)
	}
	for _, sn := range c.snaps {
		m := sn.NumTerms()
		for i, x := range ref.terms[:m] {
			if got := sn.Term(ID(i)); got != x {
				return fmt.Errorf("a snapshot of %d terms reads term %d as %#v, the reference %#v", m, i, got, x)
			}
		}
	}
	enc := encodeFrozenTerms(&g.terms)
	if want := refEncodeFrozenTerms(ref.terms); !bytes.Equal(enc, want) {
		return fmt.Errorf("terms section of %d bytes differs from the reference's %d", len(enc), len(want))
	}
	return checkTermsDecode(enc, uint64(n))
}

// checkTermsDecode decodes a terms payload with the table and with the
// reference: the same error, or the same terms and the same repeated term.
func checkTermsDecode(b []byte, want uint64) error {
	refTerms, refErr := refDecodeFrozenTerms(b, want)
	t, err := decodeFrozenTerms(b, want)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		return fmt.Errorf("decode error %v, the reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if t.len() != len(refTerms) {
		return fmt.Errorf("decoded %d terms, the reference %d", t.len(), len(refTerms))
	}
	for i, x := range refTerms {
		if got := t.term(ID(i)); got != x {
			return fmt.Errorf("decoded term %d is %#v, the reference %#v", i, got, x)
		}
	}
	wantDup, wantPrev := refIndexDup(refTerms)
	if dup, prev := t.rehash(indexSize(t.len())); dup != wantDup || (dup >= 0 && prev != wantPrev) {
		return fmt.Errorf("decoded terms repeat at %d (of %d), the reference at %d (of %d)", dup, prev, wantDup, wantPrev)
	}
	if wantDup < 0 {
		for i, x := range refTerms {
			if id := t.lookup(x); id != ID(i) {
				return fmt.Errorf("decoded term %d looks up as %d", i, id)
			}
		}
	}
	return nil
}

// checkTermTable holds the table to the reference on a graph's terms (a
// workload KB's, from package store_test): interned in ID order, frozen,
// and then every term's other-kind variants interned after the freeze.
func checkTermTable(terms []rdf.Term) error {
	c := newTermCheck()
	for _, x := range terms {
		if err := c.intern(x); err != nil {
			return err
		}
	}
	c.freeze()
	if err := c.check(); err != nil {
		return err
	}
	for _, x := range terms {
		for _, y := range variants(x.Value()) {
			if err := c.intern(y); err != nil {
				return err
			}
		}
	}
	return c.check()
}

// termAlphabet makes values collide: across kinds, with the vocabulary
// IRIs the interner watches for, and as the empty string.
var termAlphabet = []string{"", "a", "b", "ab", "en", "x y", rdf.RDFType, rdf.RDFSLabel, rdf.RDFSSubClass, "http://e/1", "Zürich"}

func randomTerm(r *rand.Rand) rdf.Term {
	v := termAlphabet[r.Intn(len(termAlphabet))]
	if r.Intn(3) == 0 {
		v = fmt.Sprintf("%s%d", v, r.Intn(40))
	}
	switch r.Intn(6) {
	case 0, 1:
		return rdf.NewIRI(v)
	case 2:
		return rdf.NewBlank(v)
	case 3:
		return rdf.NewLiteral(v)
	case 4:
		return rdf.NewLangLiteral(v, []string{"en", "de", "en-GB"}[r.Intn(3)])
	default:
		return rdf.NewTypedLiteral(v, []string{"en", rdf.XSDString, rdf.XSDInteger}[r.Intn(3)])
	}
}

// TestQuickTermTable: random interning sequences with freezes between
// them agree with the reference. It fails unless the runs met an index
// rehash, a value already interned under another kind, a literal with a
// datatype and one with a language tag, an empty value and an intern
// after a freeze.
func TestQuickTermTable(t *testing.T) {
	var cover termCover
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newTermCheck()
		for range r.Intn(150) {
			if r.Intn(25) == 0 {
				c.freeze()
			}
			if err := c.intern(randomTerm(r)); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := c.check(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cover.rehash += c.cover.rehash
		cover.crossKind += c.cover.crossKind
		cover.datatype += c.cover.datatype
		cover.lang += c.cover.lang
		cover.empty += c.cover.empty
		cover.afterFreeze += c.cover.afterFreeze
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("cover: %+v", cover)
	for name, n := range map[string]int{
		"an index rehash": cover.rehash, "a value under another kind": cover.crossKind,
		"a typed literal": cover.datatype, "a language-tagged literal": cover.lang,
		"an empty value": cover.empty, "an intern after a freeze": cover.afterFreeze,
	} {
		if n == 0 {
			t.Errorf("no run met %s", name)
		}
	}
}

// FuzzTermTable: bytes read as an interning sequence — per term an op
// byte (kind, extra, value length) and the value's bytes; 0xFF freezes —
// agree with the reference, and the same bytes read as a terms section
// decode as the reference decodes them, refusals included.
func FuzzTermTable(f *testing.F) {
	c := newTermCheck()
	for _, x := range []rdf.Term{rdf.NewIRI("a"), rdf.NewLiteral("a"), rdf.NewLangLiteral("", "en"), rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewBlank("b")} {
		c.intern(x)
	}
	f.Add(encodeFrozenTerms(&c.g.terms))
	f.Add(refEncodeFrozenTerms([]rdf.Term{rdf.NewIRI("a"), rdf.NewLiteral("a"), rdf.NewIRI("a")})) // a repeated term
	f.Add([]byte{0x01, 'a', 0x00, 'a', 0xFF, 0x0E, 0x1b, 'a'})
	f.Add(binary.LittleEndian.AppendUint32(nil, 2))
	ops := []byte{}
	for i := range 40 {
		ops = append(ops, byte(i%12)|0x20, 'v', byte('0'+i%7))
	}
	f.Add(ops)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			if err := checkTermsDecode(data, uint64(binary.LittleEndian.Uint32(data))); err != nil {
				t.Fatal(err)
			}
		}
		c := newTermCheck()
		for in := data; len(in) > 0; {
			op := in[0]
			in = in[1:]
			if op == 0xFF {
				if len(c.snaps) < 4 {
					c.freeze()
				}
				continue
			}
			l := min(int(op>>4), len(in))
			v := string(in[:l])
			in = in[l:]
			var x rdf.Term
			switch op & 0x0F % 6 {
			case 0:
				x = rdf.NewIRI(v)
			case 1:
				x = rdf.NewBlank(v)
			case 2:
				x = rdf.NewLiteral(v)
			case 3:
				x = rdf.NewLangLiteral(v, "en")
			case 4:
				x = rdf.NewTypedLiteral(v, "en")
			default:
				x = rdf.NewTypedLiteral(v, rdf.XSDString)
			}
			if err := c.intern(x); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTermTableAllocs: assembling a term, looking one up (hit or miss),
// interning a known one, an IRI's N-Triples form and a frozen vertex's
// label allocate nothing, on the graph and its snapshot.
func TestTermTableAllocs(t *testing.T) {
	g := New()
	label := g.Intern(rdf.NewIRI(rdf.RDFSLabel))
	for i := range 500 {
		v := g.Intern(rdf.NewIRI(fmt.Sprintf("http://e/%d", i)))
		g.AddSPO(v, label, g.Intern(rdf.NewLangLiteral(fmt.Sprintf("label %d", i), "en")))
	}
	sn := g.Freeze()
	if g.TermString(401) != "<http://e/200>" || g.LabelOf(401) != "label 200" {
		t.Fatalf("term 401 is %s labelled %q, want <http://e/200> labelled \"label 200\"", g.TermString(401), g.LabelOf(401))
	}
	hit, miss := rdf.NewLangLiteral("label 250", "en"), rdf.NewLiteral("label 250")
	var sink rdf.Term
	for name, f := range map[string]func(){
		"Graph.Term":    func() { sink = g.Term(401) },
		"Snapshot.Term": func() { sink = sn.Term(401) },
		"Lookup hit":    func() { g.Lookup(hit) },
		"Lookup miss":   func() { g.Lookup(miss) },
		"Intern known":  func() { g.Intern(hit) },
		"TermString":    func() { _ = g.TermString(401) },
		"LabelOf":       func() { _ = g.LabelOf(401) },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s allocates %v times", name, a)
		}
	}
	_ = sink
}

// TestFrozenDuplicateTermRefused: a K = 1 file whose terms section names
// one term twice, its checksums re-fixed, is refused with the two IDs: an
// interner could not have given one term two IDs. Term bytes are
// CRC-only in the corruption matrix, so no flip of its batteries makes
// this file.
func TestFrozenDuplicateTermRefused(t *testing.T) {
	raw := saveFrozenBytes(t, tinyFrozenGraph())
	lo, hi := sectionRange(raw, frzTerms)
	b := rdf.Resource("b").Value()
	at := bytes.Index(raw[lo:hi], []byte(b))
	if at < 0 {
		t.Fatal("the terms section does not hold the second term")
	}
	raw[lo+at+len(b)-1] = 'a'
	refixChecksums(raw)
	_, err := LoadFrozen(bytes.NewReader(raw))
	if want := "term 1 duplicates term 0 (<http://dbpedia.org/resource/a>)"; err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "section terms (byte offset ") {
		t.Fatalf("LoadFrozen of a file naming a term twice: err = %v, want one naming %q in section terms", err, want)
	}
}
