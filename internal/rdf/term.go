// Package rdf implements the RDF data model used throughout gqa: terms
// (IRIs, literals, blank nodes), triples, and N-Triples serialization.
//
// The model is deliberately small. gqa treats an RDF dataset as a directed,
// edge-labeled graph whose vertices are subjects/objects and whose edge
// labels are predicates, exactly as the paper does; everything beyond what
// that view needs (named graphs, datatype reasoning, etc.) is out of scope.
package rdf

import (
	"fmt"
	"strings"
)

// Kind discriminates the three classes of RDF terms.
type Kind uint8

const (
	// KindIRI is an IRI reference such as <http://dbpedia.org/resource/Berlin>.
	KindIRI Kind = iota
	// KindLiteral is a literal, optionally carrying a datatype IRI or a
	// language tag (the two are mutually exclusive per RDF 1.1).
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

func (k Kind) String() string {
	switch k {
	case KindIRI:
		return "IRI"
	case KindLiteral:
		return "Literal"
	case KindBlank:
		return "Blank"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Well-known vocabulary IRIs. The store gives rdf:type and rdfs:subClassOf
// special treatment when classifying vertices (Definition 3 condition 2 and
// the class-vertex test in §2.2 of the paper).
const (
	RDFType      = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSSubClass = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSLabel    = "http://www.w3.org/2000/01/rdf-schema#label"
	XSDString    = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger   = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble    = "http://www.w3.org/2001/XMLSchema#double"
	XSDDate      = "http://www.w3.org/2001/XMLSchema#date"
	XSDBoolean   = "http://www.w3.org/2001/XMLSchema#boolean"
	ResourceBase = "http://dbpedia.org/resource/"
	OntologyBase = "http://dbpedia.org/ontology/"
	PropertyBase = "http://dbpedia.org/property/"
)

// Term is an RDF term. The zero value is the empty IRI, which is invalid;
// construct terms with NewIRI, NewLiteral, and friends.
type Term struct {
	kind     Kind
	value    string // IRI string, literal lexical form, or blank label
	datatype string // literal datatype IRI; empty means plain/xsd:string
	lang     string // literal language tag; empty means none
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{kind: KindIRI, value: iri} }

// NewLiteral returns a plain (string) literal.
func NewLiteral(lexical string) Term { return Term{kind: KindLiteral, value: lexical} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{kind: KindLiteral, value: lexical, datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{kind: KindLiteral, value: lexical, lang: lang}
}

// NewBlank returns a blank node with the given label (without the "_:"
// prefix).
func NewBlank(label string) Term { return Term{kind: KindBlank, value: label} }

// Resource returns an IRI under the DBpedia-style resource namespace. It is
// a convenience used pervasively by the benchmark datasets; spaces in name
// are replaced by underscores as DBpedia does.
func Resource(name string) Term {
	return NewIRI(ResourceBase + strings.ReplaceAll(name, " ", "_"))
}

// Ontology returns an IRI under the DBpedia-style ontology namespace
// (classes and predicates).
func Ontology(name string) Term {
	return NewIRI(OntologyBase + strings.ReplaceAll(name, " ", "_"))
}

// Kind reports the term's kind.
func (t Term) Kind() Kind { return t.kind }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.kind == KindBlank }

// Value returns the IRI string, the literal lexical form, or the blank-node
// label, depending on kind.
func (t Term) Value() string { return t.value }

// Datatype returns the literal's datatype IRI, or "" for non-literals and
// plain literals.
func (t Term) Datatype() string { return t.datatype }

// Lang returns the literal's language tag, or "".
func (t Term) Lang() string { return t.lang }

// IsZero reports whether t is the zero Term (empty IRI), which no valid
// dataset contains.
func (t Term) IsZero() bool { return t == Term{} }

// LocalName returns the fragment of an IRI after the last '/' or '#', with
// underscores intact; for literals it returns the lexical form and for blank
// nodes the label. It is the basis for human-readable labels when no
// rdfs:label triple exists.
func (t Term) LocalName() string {
	if t.kind != KindIRI {
		return t.value
	}
	s := t.value
	if i := strings.LastIndexAny(s, "/#"); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}

// Label returns a human-oriented rendering of the term: the IRI local name
// with underscores turned into spaces, or the literal lexical form.
func (t Term) Label() string {
	return strings.ReplaceAll(t.LocalName(), "_", " ")
}

// Key returns a string that uniquely identifies the term across kinds,
// suitable for map keys. IRIs and literals with identical text never
// collide.
func (t Term) Key() string {
	switch t.kind {
	case KindIRI:
		return "i" + t.value
	case KindBlank:
		return "b" + t.value
	default:
		return "l" + t.value + "\x00" + t.datatype + "\x00" + t.lang
	}
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.kind {
	case KindIRI:
		return "<" + t.value + ">"
	case KindBlank:
		return "_:" + t.value
	default:
		s := `"` + escapeLiteral(t.value) + `"`
		if t.lang != "" {
			return s + "@" + t.lang
		}
		if t.datatype != "" && t.datatype != XSDString {
			return s + "^^<" + t.datatype + ">"
		}
		return s
	}
}

// Compare orders terms: by kind first (IRI < Literal < Blank), then by
// value, datatype, and language. It gives deterministic iteration orders to
// everything downstream.
func (t Term) Compare(u Term) int {
	if t.kind != u.kind {
		if t.kind < u.kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.value, u.value); c != 0 {
		return c
	}
	if c := strings.Compare(t.datatype, u.datatype); c != 0 {
		return c
	}
	return strings.Compare(t.lang, u.lang)
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
