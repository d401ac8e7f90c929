package store

import (
	"bytes"
	"fmt"

	"gqa/internal/rdf"
)

// refLabelOf is the parent's LabelOf, kept verbatim (renamed) as the
// reference the label column is compared with: it searched the rdfs:label
// run of v's out span on every call.
func (g *Graph) refLabelOf(v ID) string {
	if lp := g.labelPred; lp != None {
		labels := g.Out(v)
		if g.snap.Load() != nil {
			labels = predSpan(labels, lp)
		}
		for _, e := range labels {
			if e.Pred == lp && g.terms.kind(e.To) == rdf.KindLiteral {
				return g.terms.value(e.To)
			}
		}
	}
	return g.terms.term(v).Label()
}

// labelDiff compares LabelOf with the reference on every term of g.
func labelDiff(g *Graph, shape string) error {
	for v := range g.NumTerms() {
		if got, want := g.LabelOf(ID(v)), g.refLabelOf(ID(v)); got != want {
			return fmt.Errorf("%s: term %d (%s) labels %q, the reference %q", shape, v, g.Term(ID(v)), got, want)
		}
	}
	return nil
}

// checkLabels holds LabelOf to the reference on g in every shape a graph
// reads its labels in: never frozen (the scan), frozen at K = 1 and K = 4
// (the column), loaded from its GQAFRZ1 file, and after writes since a
// freeze — a second label on a labelled vertex, sorting first, a first one
// on a vertex without, and a label on a term interned after the freeze —
// at K = 4 and at K = 1. It returns how many terms had a label column
// entry at K = 1.
func checkLabels(g *Graph) (int, error) {
	if err := labelDiff(g, "never frozen"); err != nil {
		return 0, err
	}
	sn := g.Freeze()
	labelled := 0
	for _, l := range sn.labels {
		if l != None {
			labelled++
		}
	}
	if len(sn.labels) != sn.NumTerms() && g.labelPred != None {
		return 0, fmt.Errorf("a column of %d labels for %d terms", len(sn.labels), sn.NumTerms())
	}
	if err := labelDiff(g, "K = 1"); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := SaveFrozen(&buf, g); err != nil {
		return 0, err
	}
	lg, err := LoadFrozen(&buf)
	if err != nil {
		return 0, err
	}
	if err := labelDiff(lg, "loaded"); err != nil {
		return 0, err
	}
	g.SetShards(4)
	if err := labelDiff(g, "K = 4"); err != nil {
		return 0, err
	}
	if g.labelPred == None {
		return labelled, nil
	}
	var with, without ID = None, None
	for v, l := range sn.labels {
		switch {
		case l != None && with == None:
			with = ID(v)
		case l == None && without == None && g.terms.kind(ID(v)) == rdf.KindIRI:
			without = ID(v)
		}
	}
	for i, v := range []ID{with, without} {
		if v != None {
			g.AddSPO(v, g.labelPred, g.Intern(rdf.NewLiteral(fmt.Sprintf(" first label %d", i))))
		}
	}
	fresh := g.Intern(rdf.Resource("label-check-fresh"))
	g.AddSPO(fresh, g.labelPred, g.Intern(rdf.NewLangLiteral("fresh", "en")))
	if err := labelDiff(g, "K = 4 after writes"); err != nil {
		return 0, err
	}
	g.SetShards(1)
	return labelled, labelDiff(g, "K = 1 after writes")
}
