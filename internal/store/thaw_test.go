package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
)

// Writes after a freeze. A frozen graph is its snapshot; a write thaws the
// touched vertices' spans into rows and the next freeze reads those rows
// and the base everywhere else. These tests hold every re-freeze to a
// fresh build of the same history by a twin that is never frozen.

// runWriteScript freezes g at k parts, then applies the script to g and to
// its never-frozen twin alike, four bytes an op: a kind and three picks.
// Kinds: add a triple; remove a present one; remove every triple of a
// predicate (its last edge goes); remove every type edge into a class
// (its last instance goes; it stays a class); re-freeze g mid-script;
// switch g between 1 and 4 parts; and add an edge to an IRI interned
// after the freeze, and on an odd pick an rdfs:label literal, also new, to
// that IRI. It then re-freezes g and fails unless every part, the term
// table and the label column equal the twin's first freeze at the same
// shard count, every predicate scan reads what the reference scatter
// builds from it, and LabelOf reads the parent's label of every term.
func runWriteScript(t testing.TB, seed int64, k int, script []byte) {
	t.Helper()
	g, twin := twinGraphs(seed)
	g.SetShards(k)
	g.Freeze()
	n := g.NumTerms()
	var iris, preds []ID
	for v := 0; v < n; v++ {
		if g.Term(ID(v)).IsIRI() {
			iris = append(iris, ID(v))
		}
		if g.PredCount(ID(v)) > 0 {
			preds = append(preds, ID(v))
		}
	}
	fresh := 0
	for ; len(script) >= 4; script = script[4:] {
		kind, a, b, c := script[0]%10, int(script[1]), int(script[2]), int(script[3])
		s, p, o := iris[a%len(iris)], preds[b%len(preds)], ID(c%n)
		switch kind {
		case 0, 1, 2:
			g.AddSPO(s, p, o)
			twin.AddSPO(s, p, o)
		case 3, 4:
			all := collectVia(twin.Match, Any, Any, Any)
			if len(all) == 0 {
				continue
			}
			spo := all[(a<<8|b)%len(all)]
			if g.Remove(spo.S, spo.P, spo.O) != twin.Remove(spo.S, spo.P, spo.O) {
				t.Fatalf("seed %d: Remove%v disagrees with the twin", seed, spo)
			}
		case 5:
			if got, want := g.RemovePredicate(p), twin.RemovePredicate(p); got != want {
				t.Fatalf("seed %d: RemovePredicate(%d) removed %d, twin %d", seed, p, got, want)
			}
		case 6:
			classes := twin.Classes()
			if len(classes) == 0 || twin.TypeID() == None {
				continue
			}
			cl := classes[a%len(classes)]
			for _, inst := range instancesOf(twin, cl) {
				if !g.Remove(inst, twin.TypeID(), cl) || !twin.Remove(inst, twin.TypeID(), cl) {
					t.Fatalf("seed %d: type edge (%d, %d) not removed", seed, inst, cl)
				}
			}
		case 7:
			g.Freeze()
		case 8:
			g.SetShards(5 - max(g.NumShards(), 1)) // 1 ↔ 4
		case 9:
			term := rdf.Resource(fmt.Sprintf("fresh-%d", fresh))
			u := g.Intern(term)
			g.AddSPO(s, p, u)
			twin.AddSPO(s, p, twin.Intern(term))
			if c%2 == 1 {
				label := rdf.NewLangLiteral(fmt.Sprintf("fresh %d", fresh), "en")
				g.AddSPO(u, g.LabelPredID(), g.Intern(label))
				twin.AddSPO(u, twin.LabelPredID(), twin.Intern(label))
			}
			fresh++
		}
	}
	got := g.Freeze()
	neverFrozen(t, twin)
	twin.SetShards(g.NumShards())
	sameSnapshot(t, fmt.Sprintf("seed %d k %d", seed, k), got, twin.Freeze())
	if err := checkLocalScans(got); err != nil {
		t.Fatalf("seed %d k %d: %v", seed, k, err)
	}
	if err := labelDiff(g, fmt.Sprintf("seed %d k %d", seed, k)); err != nil {
		t.Fatal(err)
	}
}

// sameSnapshot fails unless got and want hold the same global facts, term
// table and label column and, part by part, the same arrays.
func sameSnapshot(t testing.TB, tag string, got, want *Snapshot) {
	t.Helper()
	if got.k != want.k || got.nTriples != want.nTriples || got.stats != want.stats ||
		!slices.Equal(got.predIDs, want.predIDs) || !slices.Equal(got.entities, want.entities) {
		t.Fatalf("%s: snapshot K %d, %d triples, stats %+v; fresh build K %d, %d triples, stats %+v",
			tag, got.k, got.nTriples, got.stats, want.k, want.nTriples, want.stats)
	}
	if got.terms.arena != want.terms.arena || !slices.Equal(got.terms.off, want.terms.off) || !slices.Equal(got.terms.tag, want.terms.tag) {
		t.Fatalf("%s: the term table (%d terms, %d arena bytes) differs from a fresh build's (%d, %d)",
			tag, got.terms.len(), len(got.terms.arena), want.terms.len(), len(want.terms.arena))
	}
	if !slices.Equal(got.labels, want.labels) {
		t.Fatalf("%s: label column\n got %v\nwant %v", tag, got.labels, want.labels)
	}
	for i := range got.parts {
		a, b := *got.parts[i], *want.parts[i]
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: part %d differs from a fresh build:\n got %+v\nwant %+v", tag, i, a, b)
		}
	}
}

// TestQuickWriteAfterFreeze: random writes after a freeze at K ∈ {1, 4},
// with re-freezes and re-shardings between them, re-freeze to exactly
// what a fresh build of the same history freezes to.
func TestQuickWriteAfterFreeze(t *testing.T) {
	for _, k := range []int{1, 4} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			script := make([]byte, 4*(8+r.Intn(40)))
			r.Read(script)
			runWriteScript(t, seed%16, k, script)
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("k %d: %v", k, err)
		}
	}
}

// FuzzWriteAfterFreeze is the same property over arbitrary scripts.
func FuzzWriteAfterFreeze(f *testing.F) {
	f.Add(int64(0), uint8(1), []byte{0, 1, 2, 3, 3, 0, 0, 0, 7, 0, 0, 0, 5, 0, 1, 0})
	f.Add(int64(1), uint8(4), []byte{0, 1, 2, 3, 6, 0, 0, 0, 3, 9, 9, 9, 7, 0, 0, 0, 0, 4, 5, 6})
	f.Add(int64(2), uint8(4), []byte{8, 0, 0, 0, 9, 2, 1, 0, 0, 3, 3, 3, 8, 0, 0, 0, 4, 7, 7, 7})
	f.Add(int64(3), uint8(1), []byte{9, 0, 0, 0, 9, 1, 1, 1, 5, 0, 0, 0, 5, 0, 1, 0, 5, 0, 2, 0, 6, 1, 0, 0})
	f.Add(int64(4), uint8(1), []byte{9, 0, 0, 1, 7, 0, 0, 0, 9, 1, 1, 3, 0, 2, 2, 2, 8, 0, 0, 0, 9, 3, 0, 5})
	f.Fuzz(func(t *testing.T, seed int64, k uint8, script []byte) {
		if len(script) > 4*256 {
			script = script[:4*256]
		}
		runWriteScript(t, seed%64, 1+3*int(k%2), script)
	})
}

// TestFrozenGraphHoldsNoLists pins what a frozen graph holds: after a
// freeze, and in a clean LoadFrozen result, no insertion-order list or predicate
// index and no thawed row; after one write, rows for exactly the
// two vertices it touched, copied from the base — which is not written.
func TestFrozenGraphHoldsNoLists(t *testing.T) {
	released := func(tag string, g *Graph) {
		t.Helper()
		if g.out != nil || g.in != nil || g.byPred != nil {
			t.Fatalf("%s: the graph still holds its insertion-order lists", tag)
		}
		if len(g.thawOut) != 0 || len(g.thawIn) != 0 {
			t.Fatalf("%s: the graph holds %d/%d thawed rows", tag, len(g.thawOut), len(g.thawIn))
		}
	}
	g := randomRichGraph(rand.New(rand.NewSource(5)))
	if g.out == nil || g.byPred == nil {
		t.Fatal("a never-frozen graph has no insertion-order lists")
	}
	base := g.Freeze()
	released("after Freeze", g)
	g2, err := LoadFrozen(bytes.NewReader(saveFrozenBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	released("after LoadFrozen", g2)

	s, o := ID(0), ID(g.NumTerms()-1) // v0 and the data literal "1960"
	pred, _ := g.Lookup(rdf.Ontology("p0"))
	outBefore := slices.Clone(base.rd.outSpan(s))
	inBefore := slices.Clone(base.rd.inSpan(o))
	if g.Has(s, pred, o) {
		t.Fatal("probe triple already present")
	}
	g.AddSPO(s, pred, o)
	if len(g.thawOut) != 1 || len(g.thawIn) != 1 {
		t.Fatalf("one Add thawed %d out rows and %d in rows, want 1 and 1", len(g.thawOut), len(g.thawIn))
	}
	if row := g.thawOut[s]; len(row) != len(outBefore)+1 || !slices.Equal(row[:len(outBefore)], outBefore) {
		t.Fatalf("the thawed out row %v is not the base span %v plus the edge", row, outBefore)
	}
	if !edgesEqual(base.rd.outSpan(s), outBefore) || !edgesEqual(base.rd.inSpan(o), inBefore) {
		t.Fatal("the write changed the base snapshot")
	}
	if g.out != nil || g.byPred != nil {
		t.Fatal("a write after a freeze rebuilt the insertion-order lists")
	}
	g.Freeze()
	released("after the re-freeze", g)
}
