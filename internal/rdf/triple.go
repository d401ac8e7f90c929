package rdf

// Triple is an RDF statement ⟨subject, predicate, object⟩.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// T builds a triple from three terms.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.Subject.String() + " " + t.Predicate.String() + " " + t.Object.String() + " ."
}

// Valid reports whether the triple satisfies RDF's positional constraints:
// the subject is an IRI or blank node, the predicate an IRI, and the object
// any term.
func (t Triple) Valid() bool {
	if t.Subject.IsLiteral() || t.Subject.IsZero() {
		return false
	}
	if !t.Predicate.IsIRI() || t.Predicate.IsZero() {
		return false
	}
	return !t.Object.IsZero()
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.Subject.Compare(u.Subject); c != 0 {
		return c
	}
	if c := t.Predicate.Compare(u.Predicate); c != 0 {
		return c
	}
	return t.Object.Compare(u.Object)
}
