package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// The direct rendering (tosparql.go) against the parent's, which built a
// sparql.Query and rendered it (tosparql_reference_test.go): the same
// text, or the same error, for every row of a Matches block.

// sparqlDiff renders row i of ms both ways and reports how they differ,
// or "".
func sparqlDiff(g *store.Graph, ms Matches, i int) string {
	got, err := ResolvedSPARQL(g, ms, i)
	ref, refErr := refResolvedSPARQL(g, ms, i)
	switch {
	case (err != nil) != (refErr != nil) || err != nil && err.Error() != refErr.Error():
		return fmt.Sprintf("row %d: error %v, the reference %v", i, err, refErr)
	case err == nil && got != ref.String():
		return fmt.Sprintf("row %d renders\n%s\nthe reference renders\n%s", i, got, ref.String())
	}
	return ""
}

// renderCover counts the hard cases a run of renderCase met.
type renderCover struct {
	ask, literal, blank, path, reversed, classed, lone, noPath, selfLoop, rendered int
}

// byteSource hands out the bytes of a fuzz input, then zeros; a choice
// whose rare outcome is the highest value falls to the common one when
// the input runs out.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return int(x) % n
}

// renderTerms are what a vertex or a step can name: IRIs, one with a
// multi-byte rune and one with a space, literals plain, quoted, language-
// tagged and typed, and a blank node.
var renderTerms = []rdf.Term{
	rdf.Resource("Philadelphia_(film)"), rdf.Ontology("starring"), rdf.NewIRI("http://e/Zürich"), rdf.NewIRI("http://e/a b"),
	rdf.NewLiteral("1960"), rdf.NewLiteral("say \"hi\"\n"), rdf.NewLangLiteral("Berlin", "de"),
	rdf.NewTypedLiteral("42", rdf.XSDInteger), rdf.NewTypedLiteral("x", rdf.XSDString), rdf.NewBlank("b0"),
	rdf.Ontology("Film"),
}

// renderCase builds, from data, a graph of renderTerms and a one-row
// Matches block over a query graph of 1 to 5 vertices and 0 to 5 edges:
// each vertex a constant, a class-justified variable or unconstrained,
// the select vertex any one or none (an ASK), each edge a path of 1 to 4
// steps (or, one time in eight, none) in either direction, between any two vertices or one and itself,
// with any orientation bit. It is the block a search returns, with no
// search: the renderer reads only the query, the row and the term table.
func renderCase(data []byte, cover *renderCover) (*store.Graph, Matches) {
	src := byteSource(data)
	g := store.New()
	ids := make([]store.ID, len(renderTerms))
	for i, x := range renderTerms {
		ids[i] = g.Intern(x)
	}
	g.Intern(rdf.NewIRI(rdf.RDFType))
	term := func() store.ID { return ids[src.next(len(ids))] }

	q := &QueryGraph{}
	nv := 1 + src.next(5)
	na := nv
	row := make([]store.ID, 0, 2*na+8)
	via := make([]store.ID, nv)
	sel := src.next(nv + 1) // nv: none
	for vi := range nv {
		v := Vertex{Select: vi == sel, Unconstrained: src.next(3) == 2}
		u, w := term(), store.None
		if !v.Unconstrained && src.next(3) == 2 {
			w = ids[len(ids)-1]
			cover.classed++
		}
		switch g.Term(u).Kind() {
		case rdf.KindLiteral:
			cover.literal++
		case rdf.KindBlank:
			cover.blank++
		}
		q.Vertices = append(q.Vertices, v)
		row, via[vi] = append(row, u), w
	}
	if sel == nv {
		cover.ask++
	}
	row = append(row, via...)
	var rev uint64
	ne := src.next(6)
	for ei := range ne {
		e := Edge{From: src.next(nv), To: src.next(nv)}
		if e.From == e.To {
			cover.selfLoop++
		}
		var path dict.Path
		n := 1 + src.next(4)
		if src.next(8) == 7 {
			n = 0
		}
		for range n {
			path = append(path, dict.Step{Pred: term(), Forward: src.next(2) == 0})
		}
		switch {
		case len(path) == 0:
			cover.noPath++
		case len(path) > 1:
			cover.path++
		}
		e.Candidates = []EdgeCandidate{{Path: dict.Path{{Pred: ids[1], Forward: true}}, Score: 1}, {Path: path, Score: 0.5}}
		q.Edges = append(q.Edges, e)
		row = append(row, 1)
		if src.next(2) == 0 {
			rev |= 1 << ei
			cover.reversed++
		}
	}
	if loneWh(q) >= 0 {
		cover.lone++
	}
	return g, Matches{q: q, na: na, stride: len(row), ids: row, rows: []matchRow{{score: 1, rev: rev}}}
}

// TestQuickResolvedSPARQLMatchesReference: for random blocks the direct
// rendering equals the parent's, text for text and error for error. It
// fails unless the runs met an ASK, literal and blank constants, a
// class-justified vertex, a multi-step path, a reversed edge, a self-loop,
// a lone unconstrained vertex and an edge with no path, and unless half
// the blocks rendered.
func TestQuickResolvedSPARQLMatchesReference(t *testing.T) {
	var cover renderCover
	f := func(data []byte) bool {
		g, ms := renderCase(data, &cover)
		if d := sparqlDiff(g, ms, 0); d != "" {
			t.Logf("input %x: %s", data, d)
			return false
		}
		if _, err := ResolvedSPARQL(g, ms, 0); err == nil {
			cover.rendered++
		}
		return true
	}
	r := rand.New(rand.NewSource(1))
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: r}); err != nil {
		t.Fatal(err)
	}
	t.Logf("cover: %+v", cover)
	if cover.ask == 0 || cover.literal == 0 || cover.blank == 0 || cover.classed == 0 || cover.path == 0 ||
		cover.reversed == 0 || cover.selfLoop == 0 || cover.lone == 0 || cover.noPath == 0 || cover.rendered < 1000 {
		t.Fatalf("the runs missed a case: %+v", cover)
	}
}

// FuzzResolvedSPARQL: the direct rendering of any block renderCase builds
// equals the parent's.
func FuzzResolvedSPARQL(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		{4, 0, 1, 0, 2, 1, 4, 3, 1, 2, 2, 2, 0, 1, 3, 1, 4, 0, 0, 2},
		{2, 4, 3, 0, 5, 2, 0, 1, 2, 1, 3, 1, 5, 0, 0, 1, 1, 4, 6, 1, 0},
		{0, 1, 0, 9, 1, 0, 0, 4, 1, 3, 0, 2, 0, 1, 8, 1, 1, 9, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cover renderCover
		g, ms := renderCase(data, &cover)
		if d := sparqlDiff(g, ms, 0); d != "" {
			t.Fatal(d)
		}
	})
}
