package rdf

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// parseAll decodes every triple of s, failing on the first syntax error.
func parseAll(s string) ([]Triple, error) {
	d := NewDecoder(strings.NewReader(s))
	var out []Triple
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

func TestParseSimpleTriples(t *testing.T) {
	src := `
# a comment line
<http://e.org/A> <http://e.org/knows> <http://e.org/B> .

<http://e.org/A> <http://e.org/name> "Alice" .
<http://e.org/A> <http://e.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e.org/A> <http://e.org/label> "Alicia"@es .
_:b0 <http://e.org/p> _:b1 .
`
	got, err := parseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d triples, want 5", len(got))
	}
	if got[1].Object != NewLiteral("Alice") {
		t.Errorf("literal object: %v", got[1].Object)
	}
	if got[2].Object.Datatype() != XSDInteger {
		t.Errorf("typed literal: %v", got[2].Object)
	}
	if got[3].Object.Lang() != "es" {
		t.Errorf("lang literal: %v", got[3].Object)
	}
	if got[4].Subject.Kind() != KindBlank || got[4].Object.Kind() != KindBlank {
		t.Errorf("blank nodes: %v", got[4])
	}
}

func TestParseEscapes(t *testing.T) {
	src := `<http://e/s> <http://e/p> "a\tb\nc\"d\\eé\U0001F600" .`
	got, err := parseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := "a\tb\nc\"d\\eé\U0001F600"
	if got[0].Object.Value() != want {
		t.Fatalf("unescaped %q, want %q", got[0].Object.Value(), want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing dot", `<http://e/s> <http://e/p> <http://e/o>`},
		{"trailing junk", `<http://e/s> <http://e/p> <http://e/o> . extra`},
		{"unterminated iri", `<http://e/s <http://e/p> <http://e/o> .`},
		{"unterminated literal", `<http://e/s> <http://e/p> "open .`},
		{"literal subject", `"x" <http://e/p> <http://e/o> .`},
		{"blank predicate", `<http://e/s> _:b <http://e/o> .`},
		{"bad escape", `<http://e/s> <http://e/p> "\q" .`},
		{"bad unicode escape", `<http://e/s> <http://e/p> "\uZZZZ" .`},
		{"empty iri", `<> <http://e/p> <http://e/o> .`},
		{"truncated line", `<http://e/s>`},
		{"empty lang", `<http://e/s> <http://e/p> "x"@ .`},
		{"garbage term", `? <http://e/p> <http://e/o> .`},
		{"datatype without iri", `<http://e/s> <http://e/p> ""^^> .`}, // fuzz regression
		{"datatype bare", `<http://e/s> <http://e/p> "x"^^ .`},
		// Escapes naming non-scalar code points used to be accepted and
		// silently replaced with U+FFFD — a lossy round trip.
		{"surrogate low bound", `<http://e/s> <http://e/p> "\uD800" .`},
		{"surrogate high bound", `<http://e/s> <http://e/p> "\uDFFF" .`},
		{"surrogate long form", `<http://e/s> <http://e/p> "\U0000D834" .`},
		{"beyond unicode", `<http://e/s> <http://e/p> "\U00110000" .`},
		{"beyond unicode max", `<http://e/s> <http://e/p> "\UFFFFFFFF" .`},
		// Language tags must open with a letter (BCP 47 primary subtag).
		{"lang starts with dash", `<http://e/s> <http://e/p> "x"@-en .`},
		{"lang starts with digit", `<http://e/s> <http://e/p> "x"@1en .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseAll(c.src); err == nil {
				t.Fatalf("expected error for %q", c.src)
			} else if _, ok := err.(*ParseError); !ok {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
		})
	}
}

// TestEscapeErrorsArePositioned: the rejected escape's error must point at
// the backslash inside the literal, not at the token start.
func TestEscapeErrorsArePositioned(t *testing.T) {
	src := `<http://e/s> <http://e/p> "ab\uD800" .`
	_, err := parseAll(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	// The backslash is at byte offset 29; Col is 1-based.
	if pe.Col != 30 {
		t.Errorf("Col = %d, want 30 (the \\u escape), not the literal start", pe.Col)
	}
	if !strings.Contains(pe.Msg, "surrogate") {
		t.Errorf("message %q should name the surrogate", pe.Msg)
	}
}

// TestScalarBoundaryEscapes: the code points adjacent to the rejected
// ranges must still parse, and well-formed language subtags survive.
func TestScalarBoundaryEscapes(t *testing.T) {
	src := `<http://e/s> <http://e/p> "퟿\U0010FFFF"@en-US .`
	got, err := parseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := "퟿\U0010FFFF"; got[0].Object.Value() != want {
		t.Errorf("unescaped %q, want %q", got[0].Object.Value(), want)
	}
	if got[0].Object.Lang() != "en-US" {
		t.Errorf("lang = %q, want en-US", got[0].Object.Lang())
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	src := "<http://e/s> <http://e/p> <http://e/o> .\nbad line\n"
	_, err := parseAll(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("want line 2, got %d", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("message should carry the line: %s", pe.Error())
	}
}

func TestWriteRoundTrip(t *testing.T) {
	in := []Triple{
		T(Resource("Antonio_Banderas"), Ontology("spouse"), Resource("Melanie_Griffith")),
		T(Resource("Berlin"), NewIRI(RDFSLabel), NewLangLiteral("Berlin", "de")),
		T(Resource("Q"), Ontology("height"), NewTypedLiteral("1.98", XSDDouble)),
		T(NewBlank("x"), Ontology("p"), NewLiteral("tab\there")),
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := parseAll(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d triples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("triple %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestDecoderStreamsAndStops(t *testing.T) {
	d := NewDecoder(strings.NewReader("<http://e/s> <http://e/p> <http://e/o> .\n"))
	if _, err := d.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// EOF is sticky.
	if _, err := d.Decode(); err != io.EOF {
		t.Fatalf("want io.EOF again, got %v", err)
	}
}
