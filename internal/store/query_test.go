package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gqa/internal/rdf"
)

// randomGraph builds a random small graph for property tests and returns it
// with the encoded triple list.
func randomGraph(r *rand.Rand, nVerts, nTriples int) (*Graph, []Spo) {
	g := New()
	verts := make([]ID, nVerts)
	for i := range verts {
		verts[i] = g.Intern(rdf.Resource(fmt.Sprintf("v%d", i)))
	}
	preds := make([]ID, 1+r.Intn(5))
	for i := range preds {
		preds[i] = g.Intern(rdf.Ontology(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < nTriples; i++ {
		s := verts[r.Intn(len(verts))]
		p := preds[r.Intn(len(preds))]
		o := verts[r.Intn(len(verts))]
		g.AddSPO(s, p, o)
	}
	var all []Spo
	for spo := range g.triples {
		all = append(all, spo)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return g, all
}

// bruteMatch filters the full triple list by pattern.
func bruteMatch(all []Spo, s, p, o ID) []Spo {
	var out []Spo
	for _, t := range all {
		if s != Any && t.S != s {
			continue
		}
		if p != Any && t.P != p {
			continue
		}
		if o != Any && t.O != o {
			continue
		}
		out = append(out, t)
	}
	return out
}

func collectMatch(g *Graph, s, p, o ID) []Spo {
	var out []Spo
	g.Match(s, p, o, func(t Spo) bool { out = append(out, t); return true })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return out
}

func sposEqual(a, b []Spo) bool {
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

// TestQuickMatchAgreesWithBruteForce checks every binding combination of
// Match against a linear scan on random graphs.
func TestQuickMatchAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, all := randomGraph(r, 2+r.Intn(8), r.Intn(40))
		// Try all 8 binding patterns with randomly chosen bound values
		// (sometimes values that are absent from the graph).
		pick := func() ID {
			if r.Intn(4) == 0 {
				return ID(g.NumTerms()) - 1 // may be a predicate or vertex
			}
			return ID(r.Intn(g.NumTerms() + 1))
		}
		for mask := 0; mask < 8; mask++ {
			s, p, o := Any, Any, Any
			if mask&1 != 0 {
				s = pick()
			}
			if mask&2 != 0 {
				p = pick()
			}
			if mask&4 != 0 {
				o = pick()
			}
			if int(s) > g.NumTerms() || int(p) > g.NumTerms() || int(o) > g.NumTerms() {
				continue
			}
			want := bruteMatch(all, s, p, o)
			got := collectMatch(g, s, p, o)
			if !sposEqual(got, want) {
				t.Logf("pattern (%v,%v,%v): got %v want %v", s, p, o, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g, _ := randomGraph(r, 6, 30)
	n := 0
	g.Match(Any, Any, Any, func(Spo) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop failed: %d calls", n)
	}
}

func TestCount(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("A"))
	p := g.Intern(rdf.Ontology("p"))
	for i := 0; i < 5; i++ {
		o := g.Intern(rdf.Resource(fmt.Sprintf("O%d", i)))
		g.AddSPO(a, p, o)
	}
	sn := g.Freeze()
	if got := sn.Count(a, p, Any); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := sn.Count(Any, p, Any); got != 5 {
		t.Fatalf("Count by pred = %d, want 5", got)
	}
}

func TestUndirectedNeighborsCoversBothDirections(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("A"))
	b := g.Intern(rdf.Resource("B"))
	c := g.Intern(rdf.Resource("C"))
	p := g.Intern(rdf.Ontology("p"))
	q := g.Intern(rdf.Ontology("q"))
	g.AddSPO(a, p, b) // A -p-> B
	g.AddSPO(c, q, a) // C -q-> A
	var got []Neighbor
	g.UndirectedNeighbors(a, func(n Neighbor) bool { got = append(got, n); return true })
	if len(got) != 2 {
		t.Fatalf("got %d neighbors, want 2", len(got))
	}
	if !(got[0].Forward && got[0].Pred == p && got[0].To == b) {
		t.Fatalf("forward neighbor wrong: %+v", got[0])
	}
	if got[1].Forward || got[1].Pred != q || got[1].To != c {
		t.Fatalf("backward neighbor wrong: %+v", got[1])
	}
}

func TestHasAdjacentPred(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("A"))
	b := g.Intern(rdf.Resource("B"))
	p := g.Intern(rdf.Ontology("p"))
	q := g.Intern(rdf.Ontology("q"))
	g.AddSPO(a, p, b)
	sn := g.Freeze()
	if !sn.HasAdjacentPred(a, p) || !sn.HasAdjacentPred(b, p) {
		t.Fatal("both ends must see predicate p")
	}
	if sn.HasAdjacentPred(a, q) {
		t.Fatal("q is not adjacent to A")
	}
}
