package core

// Algorithm 3 is titled "Generating Top-k SPARQL Queries": every resolved
// match corresponds to one fully-disambiguated SPARQL query. This file
// renders that correspondence — useful for explanation, for exporting the
// resolved interpretation to any SPARQL endpoint, and for testing that
// match semantics and SPARQL semantics agree.

import (
	"fmt"
	"slices"
	"strconv"

	"gqa/internal/dict"
	"gqa/internal/store"
)

// ResolvedSPARQL renders match i of ms as a SPARQL query over ms's Q^S:
//
//   - the select vertex (and any other unconstrained vertex) stays a
//     variable;
//   - a class-justified vertex becomes a variable constrained by an
//     rdf:type pattern (the resolved reading keeps the class generality);
//   - an entity-matched vertex becomes that entity constant;
//   - each edge is rendered in the orientation the match recorded
//     (Match.EdgeRev), predicate paths expanding to chains over fresh
//     intermediate variables.
//
// An unconstrained vertex that no edge touches binds any IRI with an edge
// in either direction, which a pattern without UNION cannot say, so a
// query with one has no rendering (an error, not a wrong query).
//
// The text is written straight from the block's row into one buffer, in
// the syntax sparql.Query.String writes: the patterns (the rdf:type ones
// in vertex order, then each edge's chain), then the filters, and every
// IRI is the term table's bracketed substring (store.Graph.TermString). It
// reads the graph's term table only — never an edge, so on a remote store
// it sends nothing. Parsing and evaluating the result over the same graph
// reproduces the match's bindings (property-tested).
func ResolvedSPARQL(g *store.Graph, ms Matches, i int) (string, error) {
	q, assign, via, rev := ms.q, ms.Assignment(i), ms.via(i), ms.rows[i].rev
	if len(q.Edges) > 64 {
		return "", fmt.Errorf("core: a match of %d edges has no SPARQL rendering (orientation is kept for 64)", len(q.Edges))
	}
	if vi := loneWh(q); vi >= 0 {
		return "", fmt.Errorf("core: unconstrained vertex %d has no edge, so no SPARQL rendering", vi)
	}
	for ei := range q.Edges {
		if len(ms.path(i, ei)) == 0 {
			return "", fmt.Errorf("core: match has no path for edge %d", ei)
		}
	}

	b := make([]byte, 0, 1024)
	sel := q.SelectVertex()
	if sel < 0 {
		b = append(b, "ASK WHERE { "...)
	} else {
		b = append(b, "SELECT DISTINCT ?answer WHERE { "...)
	}
	var termBuf [16]sparqlTerm
	terms := termBuf[:0]
	for vi := range q.Vertices {
		t := sparqlTerm{id: assign[vi]}
		switch {
		case vi == sel:
			t = sparqlTerm{kind: 'a'}
		case q.Vertices[vi].Unconstrained || via[vi] != store.None:
			t = sparqlTerm{kind: 'v', n: vi}
		}
		terms = append(terms, t)
		if via[vi] != store.None {
			b = appendPattern(b, g, t, sparqlTerm{id: g.TypeID()}, sparqlTerm{id: via[vi]})
		}
	}
	// Each edge's chain runs src → m_fresh → … → dst in the orientation the
	// matcher matched the path in: From→To, or To→From (Definition 3 allows
	// either).
	ends := func(ei int) (src, dst sparqlTerm) {
		e := q.Edges[ei]
		src, dst = terms[e.From], terms[e.To]
		if rev>>ei&1 != 0 {
			src, dst = dst, src
		}
		return src, dst
	}
	fresh := 0
	for ei := range q.Edges {
		path := ms.path(i, ei)
		cur, dst := ends(ei)
		for si, step := range path {
			next := dst
			if si < len(path)-1 {
				next = sparqlTerm{kind: 'm', n: fresh}
				fresh++
			}
			if step.Forward {
				b = appendPattern(b, g, cur, sparqlTerm{id: step.Pred}, next)
			} else {
				b = appendPattern(b, g, next, sparqlTerm{id: step.Pred}, cur)
			}
			cur = next
		}
	}

	// Match semantics are injective over query vertices and simple along
	// predicate paths; SPARQL joins are homomorphic, so distinctness is
	// restored with FILTER(!=) constraints over each chain of more than one
	// step and over the vertex terms.
	fresh = 0
	for ei := range q.Edges {
		n := len(ms.path(i, ei)) - 1 // the chain's intermediates
		if n == 0 {
			continue
		}
		var chainBuf [dict.ThetaMax + 1]sparqlTerm
		src, dst := ends(ei)
		chain := append(chainBuf[:0], src, dst)
		for j := range n {
			chain = append(chain, sparqlTerm{kind: 'm', n: fresh + j})
		}
		fresh += n
		b = appendDistinct(b, g, chain)
	}
	b = appendDistinct(b, g, terms)
	return string(append(b, '}')), nil
}

// sparqlTerm is one position of a rendered pattern or filter: a variable —
// ?answer (kind 'a'), vertex n's ?vn ('v') or path intermediate n's ?mn
// ('m') — or, kind 0, the constant id.
type sparqlTerm struct {
	kind byte
	n    int
	id   store.ID
}

// appendTerm appends t in SPARQL syntax.
func appendTerm(b []byte, g *store.Graph, t sparqlTerm) []byte {
	switch t.kind {
	case 0:
		return append(b, g.TermString(t.id)...)
	case 'a':
		return append(b, "?answer"...)
	}
	return strconv.AppendInt(append(b, '?', t.kind), int64(t.n), 10)
}

// appendPattern appends the triple pattern s p o and the space after it.
func appendPattern(b []byte, g *store.Graph, s, p, o sparqlTerm) []byte {
	b = append(appendTerm(b, g, s), ' ')
	b = append(appendTerm(b, g, p), ' ')
	return append(appendTerm(b, g, o), " . "...)
}

// appendDistinct appends FILTER(a != b) for every pair of group, in order,
// of which one at least is a variable (distinct constants are distinct
// already).
func appendDistinct(b []byte, g *store.Graph, group []sparqlTerm) []byte {
	for i := range group {
		for j := i + 1; j < len(group); j++ {
			if group[i].kind == 0 && group[j].kind == 0 {
				continue
			}
			b = append(appendTerm(append(b, "FILTER("...), g, group[i]), " != "...)
			b = append(appendTerm(b, g, group[j]), ") "...)
		}
	}
	return b
}

// loneWh returns the first unconstrained vertex of q that no edge touches,
// or −1.
func loneWh(q *QueryGraph) int {
	for vi := range q.Vertices {
		if q.Vertices[vi].Unconstrained && !slices.ContainsFunc(q.Edges, func(e Edge) bool { return e.From == vi || e.To == vi }) {
			return vi
		}
	}
	return -1
}
