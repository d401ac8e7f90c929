package core_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/linker"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// FuzzAnswerOverDictionary: over every dictionary file dict.Decode
// accepts, the paper's running example on the qald KB gets an answer or a
// named failure — never a panic, an error, or an answer that is no term of
// the graph. The seeds are the mined qald dictionary and hand-made files
// that send the question's phrases down other predicates, rdf:type, a
// θ-long path and its reverse.
func FuzzAnswerOverDictionary(f *testing.F) {
	g, err := bench.BuildKB()
	if err != nil {
		f.Fatal(err)
	}
	mined, _, err := bench.BuildDictionary(g)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mined.Encode(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	o := func(p string) string { return rdf.OntologyBase + p }
	f.Add("")
	f.Add("be married to\t1\t+" + o("spouse") + "\nplay in\t1\t-" + o("starring") + "\n")
	f.Add("be married to\t1\t+" + rdf.RDFType + "\nplay in\t0.5\t+" + o("director") + ",-" + o("starring") + "\n")
	f.Add("be married to\t1e-06\t+" + o("spouse") + ",-" + o("spouse") + ",+" + o("spouse") + ",-" + o("spouse") + "\n" +
		"play in\t1\t+" + o("starring") + ",+" + rdf.RDFSLabel + "\nactor\t1\t+" + o("starring") + "\n")

	lk := linker.New(g, linker.Options{})
	n := store.ID(g.NumTerms())
	const question = "Who was married to an actor that played in Philadelphia?"
	f.Fuzz(func(t *testing.T, in string) {
		d, err := dict.Decode(strings.NewReader(in), g)
		if err != nil {
			return
		}
		sys := &core.System{Graph: g, Dict: d, Linker: lk}
		res, err := sys.AnswerContext(context.Background(), question)
		if err != nil {
			t.Fatalf("answering over\n%s\nfailed: %v", in, err)
		}
		answered := len(res.Answers) > 0 || res.Boolean != nil || res.Count != nil
		if !answered && (res.Failure == core.FailureNone || res.Failure.String() == "unknown") {
			t.Fatalf("over\n%s\nno answer and no named failure (failure %d)", in, res.Failure)
		}
		for _, id := range res.Answers {
			if id >= n {
				t.Fatalf("over\n%s\nanswer ID %d is no term of the graph's %d", in, id, n)
			}
		}
	})
}
