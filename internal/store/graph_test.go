package store

import (
	"strings"
	"testing"

	"gqa/internal/rdf"
)

// smallGraph builds the paper's running-example graph (Figure 1-ish).
func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	triples := []rdf.Triple{
		rdf.T(rdf.Resource("Antonio_Banderas"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Actor")),
		rdf.T(rdf.Resource("Melanie_Griffith"), rdf.Ontology("spouse"), rdf.Resource("Antonio_Banderas")),
		rdf.T(rdf.Resource("Philadelphia_(film)"), rdf.Ontology("starring"), rdf.Resource("Antonio_Banderas")),
		rdf.T(rdf.Resource("Philadelphia_(film)"), rdf.NewIRI(rdf.RDFType), rdf.Ontology("Film")),
		rdf.T(rdf.Resource("Aaron_McKie"), rdf.Ontology("playForTeam"), rdf.Resource("Philadelphia_76ers")),
		rdf.T(rdf.Resource("Philadelphia"), rdf.Ontology("country"), rdf.Resource("United_States")),
		rdf.T(rdf.Resource("Antonio_Banderas"), rdf.NewIRI(rdf.RDFSLabel), rdf.NewLiteral("Antonio Banderas")),
		rdf.T(rdf.Ontology("Actor"), rdf.NewIRI(rdf.RDFSSubClass), rdf.Ontology("Person")),
	}
	if err := g.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustID(t *testing.T, g *Graph, term rdf.Term) ID {
	t.Helper()
	id, ok := g.Lookup(term)
	if !ok {
		t.Fatalf("term %v not interned", term)
	}
	return id
}

func TestInternIsIdempotent(t *testing.T) {
	g := New()
	a := g.Intern(rdf.Resource("X"))
	b := g.Intern(rdf.Resource("X"))
	if a != b {
		t.Fatalf("same term interned twice: %d vs %d", a, b)
	}
	c := g.Intern(rdf.NewLiteral("X"))
	if c == a {
		t.Fatal("literal and IRI with same text must not collide")
	}
	if g.Term(a) != rdf.Resource("X") {
		t.Fatal("Term round-trip failed")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	g := New()
	bad := rdf.T(rdf.NewLiteral("s"), rdf.Ontology("p"), rdf.Resource("o"))
	if err := g.Add(bad); err == nil {
		t.Fatal("expected error for literal subject")
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	g := New()
	tr := rdf.T(rdf.Resource("A"), rdf.Ontology("p"), rdf.Resource("B"))
	for i := 0; i < 3; i++ {
		if err := g.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", g.NumTriples())
	}
	a := mustID(t, g, rdf.Resource("A"))
	if len(g.Out(a)) != 1 {
		t.Fatalf("adjacency duplicated: %v", g.Out(a))
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	g := smallGraph(t)
	// Every out edge must have a mirrored in edge and vice versa.
	for v := 0; v < g.NumTerms(); v++ {
		for _, e := range g.Out(ID(v)) {
			found := false
			for _, r := range g.In(e.To) {
				if r.Pred == e.Pred && r.To == ID(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("out edge %d-[%d]->%d has no mirror", v, e.Pred, e.To)
			}
		}
	}
}

func TestClassDetection(t *testing.T) {
	g := smallGraph(t)
	actor := mustID(t, g, rdf.Ontology("Actor"))
	person := mustID(t, g, rdf.Ontology("Person"))
	film := mustID(t, g, rdf.Ontology("Film"))
	banderas := mustID(t, g, rdf.Resource("Antonio_Banderas"))
	for _, c := range []ID{actor, person, film} {
		if !g.IsClass(c) {
			t.Errorf("%v should be a class", g.Term(c))
		}
	}
	if g.IsClass(banderas) {
		t.Error("Antonio_Banderas must not be a class")
	}
	if g.IsEntity(actor) {
		t.Error("a class is not an entity")
	}
	if !g.IsEntity(banderas) {
		t.Error("Antonio_Banderas should be an entity")
	}
}

func TestTypesAndInstances(t *testing.T) {
	g := smallGraph(t)
	banderas := mustID(t, g, rdf.Resource("Antonio_Banderas"))
	actor := mustID(t, g, rdf.Ontology("Actor"))
	types := g.TypesOf(banderas)
	if len(types) != 1 || types[0] != actor {
		t.Fatalf("TypesOf = %v", types)
	}
	if !g.HasType(banderas, actor) {
		t.Fatal("HasType false")
	}
	inst := g.InstancesOf(actor)
	if len(inst) != 1 || inst[0] != banderas {
		t.Fatalf("InstancesOf = %v", inst)
	}
}

func TestPredicateIsNotEntity(t *testing.T) {
	g := smallGraph(t)
	spouse := mustID(t, g, rdf.Ontology("spouse"))
	if g.IsEntity(spouse) {
		t.Fatal("a predicate-only IRI must not be an entity")
	}
}

func TestLabelOf(t *testing.T) {
	g := smallGraph(t)
	banderas := mustID(t, g, rdf.Resource("Antonio_Banderas"))
	if got := g.LabelOf(banderas); got != "Antonio Banderas" {
		t.Fatalf("LabelOf via rdfs:label = %q", got)
	}
	phila := mustID(t, g, rdf.Resource("Philadelphia_(film)"))
	if got := g.LabelOf(phila); got != "Philadelphia (film)" {
		t.Fatalf("LabelOf via IRI = %q", got)
	}
}

func TestLoadFromNTriples(t *testing.T) {
	src := `<http://dbpedia.org/resource/A> <http://dbpedia.org/ontology/p> <http://dbpedia.org/resource/B> .
<http://dbpedia.org/resource/A> <http://www.w3.org/2000/01/rdf-schema#label> "Alpha" .
`
	g := New()
	if err := g.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d", g.NumTriples())
	}
	a := mustID(t, g, rdf.Resource("A"))
	if g.LabelOf(a) != "Alpha" {
		t.Fatalf("label = %q", g.LabelOf(a))
	}
	if err := g.Load(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("expected load error")
	}
}

func TestStats(t *testing.T) {
	g := smallGraph(t)
	st := g.Stats()
	if st.Triples != 8 {
		t.Errorf("Triples = %d, want 8", st.Triples)
	}
	if st.Classes != 3 { // Actor, Person, Film
		t.Errorf("Classes = %d, want 3", st.Classes)
	}
	if st.Literals != 1 {
		t.Errorf("Literals = %d, want 1", st.Literals)
	}
	// Entities: Banderas, Griffith, Philadelphia_(film), McKie, 76ers,
	// Philadelphia, United_States = 7.
	if st.Entities != 7 {
		t.Errorf("Entities = %d, want 7", st.Entities)
	}
	if st.Predicates != 7 {
		t.Errorf("Predicates = %d, want 7", st.Predicates)
	}
}

func TestEntitiesAndClassesListing(t *testing.T) {
	g := smallGraph(t)
	if got := len(g.Entities()); got != 7 {
		t.Fatalf("Entities = %d, want 7", got)
	}
	if got := len(g.Classes()); got != 3 {
		t.Fatalf("Classes = %d, want 3", got)
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	g := smallGraph(t)
	all := g.Triples()
	if len(all) != g.NumTriples() {
		t.Fatalf("Triples() length %d != NumTriples %d", len(all), g.NumTriples())
	}
	g2 := New()
	if err := g2.AddAll(all); err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Fatal("round-trip changed triple count")
	}
	for _, tr := range all {
		if !g2.HasTriple(tr) {
			t.Fatalf("missing triple %v after round-trip", tr)
		}
	}
}

func TestHasTripleUnknownTerms(t *testing.T) {
	g := smallGraph(t)
	if g.HasTriple(rdf.T(rdf.Resource("Nobody"), rdf.Ontology("spouse"), rdf.Resource("Antonio_Banderas"))) {
		t.Fatal("HasTriple with unknown subject should be false")
	}
}
