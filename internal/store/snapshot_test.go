package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := New()
	triples := []rdf.Triple{
		rdf.T(rdf.Resource("A"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Actor")),
		rdf.T(rdf.Resource("A"), rdf.Ontology("spouse"), rdf.Resource("B")),
		rdf.T(rdf.Resource("A"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLangLiteral("Ä", "de")),
		rdf.T(rdf.Resource("A"), rdf.Ontology("height"), rdf.NewTypedLiteral("1.8", rdf.XSDDouble)),
		rdf.T(rdf.NewBlank("b0"), rdf.Ontology("p"), rdf.NewLiteral("plain")),
	}
	if err := g.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() || g2.NumTerms() != g.NumTerms() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			g2.NumTriples(), g2.NumTerms(), g.NumTriples(), g.NumTerms())
	}
	for _, tr := range triples {
		if !g2.HasTriple(tr) {
			t.Fatalf("missing %v", tr)
		}
	}
	// Derived machinery (classes, labels) is rebuilt, and the graph freezes.
	a, _ := g2.Lookup(rdf.Resource("A"))
	actor, _ := g2.Lookup(rdf.Ontology("Actor"))
	if !g2.IsClass(actor) || !g2.HasType(a, actor) {
		t.Fatal("type machinery not rebuilt")
	}
	if g2.LabelOf(a) != "Ä" {
		t.Fatalf("label = %q", g2.LabelOf(a))
	}
	spouse, _ := g2.Lookup(rdf.Ontology("spouse"))
	if !g2.FrozenView().HasAdjacentPred(a, spouse) {
		t.Fatal("loaded graph's frozen view misses an adjacent predicate")
	}
}

func TestSnapshotErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTSNAP!"),
		[]byte("GQASNAP1"),               // truncated after magic
		append([]byte("GQASNAP1"), 0x01), // term count but no term
		append([]byte("GQASNAP1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), // absurd count
	}
	for i, c := range cases {
		if _, err := LoadSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Triple referencing unknown term.
	var buf bytes.Buffer
	g := New()
	g.Add(rdf.T(rdf.Resource("A"), rdf.Ontology("p"), rdf.Resource("B")))
	g.Snapshot(&buf)
	b := buf.Bytes()
	b[len(b)-1] = 0x7F // corrupt last triple's object ID
	if _, err := LoadSnapshot(bytes.NewReader(b)); err == nil {
		t.Error("corrupt triple accepted")
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, all := randomGraph(r, 2+r.Intn(10), r.Intn(60))
		var buf bytes.Buffer
		if err := g.Snapshot(&buf); err != nil {
			return false
		}
		g2, err := LoadSnapshot(&buf)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g2.NumTriples() != len(all) || g2.NumTerms() != g.NumTerms() {
			return false
		}
		for _, spo := range all {
			// IDs are preserved exactly (insertion order is serialized).
			if !g2.Has(spo.S, spo.P, spo.O) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTrailingGarbage: a stream with bytes after the final triple
// (a concatenated or corrupt file) must be rejected with a positioned
// error, not silently accepted up to the point the decoder felt done.
func TestSnapshotTrailingGarbage(t *testing.T) {
	g := New()
	g.Add(rdf.T(rdf.Resource("A"), rdf.Ontology("p"), rdf.Resource("B")))
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, tail := range [][]byte{{0x00}, {0xFF, 0xFF}, valid} {
		data := append(append([]byte(nil), valid...), tail...)
		_, err := LoadSnapshot(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("snapshot with %d trailing bytes accepted", len(tail))
		}
		want := fmt.Sprintf("trailing data at byte offset %d", len(valid))
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not carry position %q", err, want)
		}
	}
	// The pristine stream still loads.
	if _, err := LoadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// failingWriter fails with a sticky error once n bytes have been accepted —
// a full disk, in miniature.
type failingWriter struct {
	n    int
	left int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errDiskFull
	}
	if len(p) <= w.left {
		w.left -= len(p)
		return len(p), nil
	}
	n := w.left
	w.left = 0
	return n, errDiskFull
}

// TestSnapshotWriteErrors: every write failure during serialization — at
// the magic, mid-terms, mid-triples, or at the final flush — must surface
// as an error, for both snapshot formats.
func TestSnapshotWriteErrors(t *testing.T) {
	g := randomRichGraph(rand.New(rand.NewSource(42)))
	var full bytes.Buffer
	if err := g.Snapshot(&full); err != nil {
		t.Fatal(err)
	}
	var frz bytes.Buffer
	if err := SaveFrozen(&frz, g); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 7, 64, full.Len() / 2, full.Len() - 1} {
		if err := g.Snapshot(&failingWriter{left: cut}); !errors.Is(err, errDiskFull) {
			t.Fatalf("Snapshot with writer failing after %d bytes: err = %v, want disk full", cut, err)
		}
	}
	for _, cut := range []int{0, 1, frzHeaderSize - 1, frzHeaderSize + 10, frz.Len() - 1} {
		if err := SaveFrozen(&failingWriter{left: cut}, g); !errors.Is(err, errDiskFull) {
			t.Fatalf("SaveFrozen with writer failing after %d bytes: err = %v, want disk full", cut, err)
		}
	}
}

func TestSnapshotNotNTriples(t *testing.T) {
	// Feeding N-Triples text to the snapshot loader errors cleanly.
	if _, err := LoadSnapshot(strings.NewReader("<http://a> <http://b> <http://c> .\n")); err == nil {
		t.Fatal("N-Triples accepted as snapshot")
	}
}
