package store

import (
	"fmt"
	"slices"
	"testing"

	"gqa/internal/rdf"
)

// TestRefreezeCleanAndHandedOut pins what a re-freeze keeps at K = 4: a
// clean re-freeze is a pointer load, and a snapshot handed out before a
// write does not see it.
func TestRefreezeCleanAndHandedOut(t *testing.T) {
	const k = 4
	g := New()
	p := g.Intern(rdf.Ontology("p"))
	verts := make([]ID, 40)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i+1 < len(verts); i++ {
		g.AddSPO(verts[i], p, verts[i+1])
	}
	g.SetShards(k)
	ss1 := g.Freeze()

	// Clean re-freeze: the whole snapshot is the same pointer.
	if g.Freeze() != ss1 || g.FrozenView() != View(ss1) {
		t.Fatal("clean Freeze rebuilt the snapshot")
	}

	s, o := verts[0], verts[2]
	g.AddSPO(s, p, o)
	ss2 := g.Freeze()
	if !ss2.Has(s, p, o) {
		t.Fatal("new triple missing from re-frozen set")
	}
	// The handed-out pre-mutation set still answers pre-mutation reads.
	if ss1.Has(s, p, o) {
		t.Fatal("pre-mutation snapshot sees the new triple")
	}
}

// TestRefreezeBuildsEveryPart: a literal interned after a K = 4 freeze and
// an edge to it re-freeze into a snapshot whose every part is built at the
// new term count, whose new vertex's span is read from its own part, and
// whose stats are a never-frozen twin's.
func TestRefreezeBuildsEveryPart(t *testing.T) {
	const k = 4
	g, twin := twinGraphs(5)
	g.SetShards(k)
	g.Freeze()
	s, _ := g.Lookup(rdf.Resource("v0"))
	p, _ := g.Lookup(rdf.Ontology("p0"))
	lit := rdf.NewLiteral("interned after the freeze")
	g.AddSPO(s, p, g.Intern(lit))
	v := twin.Intern(lit)
	twin.AddSPO(s, p, v)

	sn := g.Freeze()
	for i, part := range sn.parts {
		if part.nTerms != sn.NumTerms() {
			t.Fatalf("part %d built at %d terms, the snapshot has %d", i, part.nTerms, sn.NumTerms())
		}
	}
	part, l := sn.parts.locate(v)
	if part != sn.parts[int(v)%k] {
		t.Fatalf("vertex %d is not located in its part %d", v, int(v)%k)
	}
	if in := part.inEdges[part.inOff[l]:part.inOff[l+1]]; !slices.Equal(in, []Edge{{Pred: p, To: s}}) {
		t.Fatalf("part %d reads the new vertex's in span as %v", int(v)%k, in)
	}
	neverFrozen(t, twin)
	if want := twin.Stats(); sn.stats != want {
		t.Fatalf("re-frozen stats %+v, the never-frozen twin's %+v", sn.stats, want)
	}
}
