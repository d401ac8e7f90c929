package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.Value() != "http://example.org/a" {
		t.Fatalf("NewIRI: got %v", iri)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() || lit.Value() != "hello" || lit.Datatype() != "" || lit.Lang() != "" {
		t.Fatalf("NewLiteral: got %v", lit)
	}
	typed := NewTypedLiteral("42", XSDInteger)
	if typed.Datatype() != XSDInteger {
		t.Fatalf("NewTypedLiteral: datatype %q", typed.Datatype())
	}
	lang := NewLangLiteral("Berlin", "de")
	if lang.Lang() != "de" {
		t.Fatalf("NewLangLiteral: lang %q", lang.Lang())
	}
	b := NewBlank("n1")
	if b.Kind() != KindBlank || b.Value() != "n1" {
		t.Fatalf("NewBlank: got %v", b)
	}
}

func TestResourceAndOntologyHelpers(t *testing.T) {
	r := Resource("Antonio Banderas")
	if r.Value() != ResourceBase+"Antonio_Banderas" {
		t.Fatalf("Resource: %q", r.Value())
	}
	o := Ontology("starring")
	if o.Value() != OntologyBase+"starring" {
		t.Fatalf("Ontology: %q", o.Value())
	}
}

func TestLocalNameAndLabel(t *testing.T) {
	cases := []struct {
		term  Term
		local string
		label string
	}{
		{Resource("Melanie_Griffith"), "Melanie_Griffith", "Melanie Griffith"},
		{NewIRI("http://example.org/ns#width"), "width", "width"},
		{NewIRI("noslash"), "noslash", "noslash"},
		{NewLiteral("plain text"), "plain text", "plain text"},
		{NewBlank("b0"), "b0", "b0"},
	}
	for _, c := range cases {
		if got := c.term.LocalName(); got != c.local {
			t.Errorf("LocalName(%v) = %q, want %q", c.term, got, c.local)
		}
		if got := c.term.Label(); got != c.label {
			t.Errorf("Label(%v) = %q, want %q", c.term, got, c.label)
		}
	}
}

func TestTermStringNTriples(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://e.org/x"), "<http://e.org/x>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLiteral(`say "hi"` + "\n"), `"say \"hi\"\n"`},
		{NewTypedLiteral("3", XSDInteger), `"3"^^<` + XSDInteger + `>`},
		{NewTypedLiteral("s", XSDString), `"s"`}, // xsd:string elided
		{NewLangLiteral("Köln", "de"), `"Köln"@de`},
		{NewBlank("n7"), "_:n7"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTermKeyDistinguishesKinds(t *testing.T) {
	a := NewIRI("x")
	b := NewLiteral("x")
	c := NewBlank("x")
	keys := map[string]bool{a.Key(): true, b.Key(): true, c.Key(): true}
	if len(keys) != 3 {
		t.Fatalf("keys collide: %v %v %v", a.Key(), b.Key(), c.Key())
	}
	d := NewTypedLiteral("x", XSDInteger)
	e := NewLangLiteral("x", "en")
	if b.Key() == d.Key() || b.Key() == e.Key() || d.Key() == e.Key() {
		t.Fatal("literal keys with different datatype/lang collide")
	}
}

func TestCompareOrdersKinds(t *testing.T) {
	iri := NewIRI("z")
	lit := NewLiteral("a")
	bl := NewBlank("a")
	if iri.Compare(lit) >= 0 || lit.Compare(bl) >= 0 || iri.Compare(bl) >= 0 {
		t.Fatal("kind ordering IRI < Literal < Blank violated")
	}
	if iri.Compare(iri) != 0 {
		t.Fatal("Compare not reflexive")
	}
}

func TestTripleValid(t *testing.T) {
	s := Resource("A")
	p := Ontology("knows")
	o := Resource("B")
	if !T(s, p, o).Valid() {
		t.Fatal("plain triple should be valid")
	}
	if T(NewLiteral("x"), p, o).Valid() {
		t.Fatal("literal subject should be invalid")
	}
	if T(s, NewLiteral("x"), o).Valid() {
		t.Fatal("literal predicate should be invalid")
	}
	if T(s, NewBlank("b"), o).Valid() {
		t.Fatal("blank predicate should be invalid")
	}
	if !T(NewBlank("b"), p, NewLiteral("lit")).Valid() {
		t.Fatal("blank subject with literal object should be valid")
	}
	if T(Term{}, p, o).Valid() || T(s, Term{}, o).Valid() || T(s, p, Term{}).Valid() {
		t.Fatal("zero terms should be invalid")
	}
}

func TestTripleCompare(t *testing.T) {
	a := T(Resource("A"), Ontology("p"), Resource("B"))
	b := T(Resource("A"), Ontology("p"), Resource("C"))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("triple Compare ordering wrong")
	}
}

// randomTerm builds an arbitrary valid term for property tests.
func randomTerm(r *rand.Rand) Term {
	alphabet := []rune("abcXYZ019_ /#\"\\\n\t漢")
	randStr := func(min int) string {
		n := min + r.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	switch r.Intn(4) {
	case 0:
		return NewIRI("http://e.org/" + strings.Map(iriSafe, randStr(1)))
	case 1:
		return NewLiteral(randStr(0))
	case 2:
		return NewTypedLiteral(randStr(0), XSDInteger)
	default:
		return NewLangLiteral(randStr(0), "en")
	}
}

func iriSafe(r rune) rune {
	switch r {
	case ' ', '"', '\\', '\n', '\t', '<', '>':
		return '_'
	}
	return r
}

func TestQuickTermRoundTrip(t *testing.T) {
	// Any valid triple must survive String() → parse.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		subj := Resource("s" + strings.Map(iriSafe, "x"))
		tr := T(subj, NewIRI("http://e.org/p"), randomTerm(r))
		got, err := parseAll(tr.String())
		if err != nil {
			t.Logf("parse error for %q: %v", tr.String(), err)
			return false
		}
		return len(got) == 1 && got[0] == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomTerm(r), randomTerm(r)
		ab, ba := a.Compare(b), b.Compare(a)
		if ab == 0 {
			return a == b && ba == 0
		}
		return ab == -ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

var _ = reflect.DeepEqual // keep reflect import if cases change
