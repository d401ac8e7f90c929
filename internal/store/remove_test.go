package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
)

// countMatch counts the triples Match yields for a pattern; with only p
// bound that is a scan of the predicate-major index itself, not of the
// PredCount counter beside it.
func countMatch(g *Graph, s, p, o ID) int {
	n := 0
	g.Match(s, p, o, func(Spo) bool { n++; return true })
	return n
}

func TestRemoveBasics(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("A"))
	p := g.Intern(rdf.Ontology("p"))
	b := g.Intern(rdf.Resource("B"))
	g.AddSPO(a, p, b)
	if !g.Remove(a, p, b) {
		t.Fatal("Remove returned false for present triple")
	}
	if g.Remove(a, p, b) {
		t.Fatal("double remove returned true")
	}
	if g.Has(a, p, b) || g.NumTriples() != 0 {
		t.Fatal("triple still present")
	}
	if len(g.Out(a)) != 0 || len(g.In(b)) != 0 {
		t.Fatal("adjacency not cleaned")
	}
	if g.PredCount(p) != 0 {
		t.Fatal("predicate count not decremented")
	}
	if countMatch(g, Any, p, Any) != 0 {
		t.Fatal("predicate index not cleaned")
	}
}

func TestRemoveTypeTriple(t *testing.T) {
	g := New()
	e := g.Intern(rdf.Resource("E"))
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	c := g.Intern(rdf.Ontology("C"))
	g.AddSPO(e, typ, c)
	if !g.HasType(e, c) {
		t.Fatal("type missing")
	}
	g.Remove(e, typ, c)
	if g.HasType(e, c) {
		t.Fatal("type survives removal")
	}
	if len(g.InstancesOf(c)) != 0 {
		t.Fatal("instance list not cleaned")
	}
	// The class designation is monotone by design.
	if !g.IsClass(c) {
		t.Fatal("class designation should persist")
	}
}

func TestRemovePredicate(t *testing.T) {
	g := New()
	p := g.Intern(rdf.Ontology("p"))
	q := g.Intern(rdf.Ontology("q"))
	for i := 0; i < 5; i++ {
		s := g.Intern(rdf.Resource(fmt.Sprintf("s%d", i)))
		o := g.Intern(rdf.Resource(fmt.Sprintf("o%d", i)))
		g.AddSPO(s, p, o)
		g.AddSPO(s, q, o)
	}
	if n := g.RemovePredicate(p); n != 5 {
		t.Fatalf("removed %d, want 5", n)
	}
	if countMatch(g, Any, p, Any) != 0 || countMatch(g, Any, q, Any) != 5 {
		t.Fatal("wrong triples removed")
	}
}

func TestRemoveTripleTermLevel(t *testing.T) {
	g := New()
	tr := rdf.T(rdf.Resource("A"), rdf.Ontology("p"), rdf.Resource("B"))
	if err := g.Add(tr); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveTriple(tr) {
		t.Fatal("RemoveTriple failed")
	}
	if g.RemoveTriple(rdf.T(rdf.Resource("X"), rdf.Ontology("p"), rdf.Resource("B"))) {
		t.Fatal("unknown triple removed")
	}
}

// TestQuickAddRemoveConsistency: after random interleavings of adds and
// removes, the graph equals one built from the surviving triple set.
func TestQuickAddRemoveConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		nv, np := 5, 3
		var verts, preds []ID
		for i := 0; i < nv; i++ {
			verts = append(verts, g.Intern(rdf.Resource(fmt.Sprintf("v%d", i))))
		}
		for i := 0; i < np; i++ {
			preds = append(preds, g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i))))
		}
		live := map[Spo]bool{}
		for step := 0; step < 60; step++ {
			spo := Spo{
				S: verts[r.Intn(nv)],
				P: preds[r.Intn(np)],
				O: verts[r.Intn(nv)],
			}
			if r.Intn(3) == 0 {
				g.Remove(spo.S, spo.P, spo.O)
				delete(live, spo)
			} else {
				g.AddSPO(spo.S, spo.P, spo.O)
				live[spo] = true
			}
		}
		if g.NumTriples() != len(live) {
			t.Logf("seed %d: %d triples, want %d", seed, g.NumTriples(), len(live))
			return false
		}
		// Adjacency agrees with the live set in both directions.
		for spo := range live {
			if !g.Has(spo.S, spo.P, spo.O) {
				return false
			}
		}
		for _, v := range verts {
			for _, e := range g.Out(v) {
				if !live[Spo{v, e.Pred, e.To}] {
					t.Logf("seed %d: stale out edge", seed)
					return false
				}
			}
			for _, e := range g.In(v) {
				if !live[Spo{e.To, e.Pred, v}] {
					t.Logf("seed %d: stale in edge", seed)
					return false
				}
			}
		}
		// Predicate index agrees.
		for _, p := range preds {
			n := 0
			for spo := range live {
				if spo.P == p {
					n++
				}
			}
			if countMatch(g, Any, p, Any) != n {
				t.Logf("seed %d: pred index count mismatch", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
