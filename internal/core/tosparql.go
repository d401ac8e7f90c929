package core

// Algorithm 3 is titled "Generating Top-k SPARQL Queries": every resolved
// match corresponds to one fully-disambiguated SPARQL query. This file
// renders that correspondence — useful for explanation, for exporting the
// resolved interpretation to any SPARQL endpoint, and for testing that
// match semantics and SPARQL semantics agree.

import (
	"fmt"
	"slices"

	"gqa/internal/sparql"
	"gqa/internal/store"
)

// ResolvedSPARQL renders a match of q as a SPARQL query:
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
// It reads the graph's term table only — never an edge, so on a remote
// store it sends nothing. Evaluating the result over the same graph
// reproduces the match's bindings (property-tested).
func ResolvedSPARQL(g *store.Graph, q *QueryGraph, m *Match) (*sparql.Query, error) {
	out := &sparql.Query{Kind: sparql.KindSelect, Distinct: true}
	sel := q.SelectVertex()
	if sel < 0 {
		out.Kind = sparql.KindAsk
	}

	terms := make([]sparql.Term, len(q.Vertices))
	for vi := range q.Vertices {
		v := &q.Vertices[vi]
		switch {
		case vi == sel:
			terms[vi] = sparql.Term{Var: "answer"}
			out.Vars = []string{"answer"}
		case v.Unconstrained:
			terms[vi] = sparql.Term{Var: fmt.Sprintf("v%d", vi)}
		case m.Via[vi] != store.None:
			terms[vi] = sparql.Term{Var: fmt.Sprintf("v%d", vi)}
		default:
			terms[vi] = sparql.Term{Const: g.Term(m.Assignment[vi])}
		}
		if m.Via[vi] != store.None {
			out.Patterns = append(out.Patterns, sparql.Pattern{
				S: terms[vi],
				P: sparql.Term{Const: g.Term(g.TypeID())},
				O: sparql.Term{Const: g.Term(m.Via[vi])},
			})
		}
	}

	// Match semantics are injective over query vertices and simple along
	// predicate paths; SPARQL joins are homomorphic, so distinctness is
	// restored with FILTER(!=) constraints over each chain and over the
	// vertex terms.
	addDistinct := func(group []sparql.Term) {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				a, b := group[i], group[j]
				if !a.IsVar() && !b.IsVar() {
					continue // distinct constants already
				}
				out.Filters = append(out.Filters, sparql.Filter{Left: a, Op: sparql.OpNe, Right: b})
			}
		}
	}

	if len(q.Edges) > 64 {
		return nil, fmt.Errorf("core: a match of %d edges has no SPARQL rendering (orientation is kept for 64)", len(q.Edges))
	}
	if vi := loneWh(q); vi >= 0 {
		return nil, fmt.Errorf("core: unconstrained vertex %d has no edge, so no SPARQL rendering", vi)
	}
	fresh := 0
	for ei, e := range q.Edges {
		path := m.EdgePaths[ei]
		if len(path) == 0 {
			return nil, fmt.Errorf("core: match has no path for edge %d", ei)
		}
		// The orientation is the one the matcher matched the path in: it
		// runs From→To, or To→From (Definition 3 allows either).
		src, dst := terms[e.From], terms[e.To]
		if m.EdgeRev>>ei&1 != 0 {
			src, dst = dst, src
		}
		chain := []sparql.Term{src, dst}
		cur := src
		for si, step := range path {
			var next sparql.Term
			if si == len(path)-1 {
				next = dst
			} else {
				next = sparql.Term{Var: fmt.Sprintf("m%d", fresh)}
				fresh++
				chain = append(chain, next)
			}
			pt := sparql.Term{Const: g.Term(step.Pred)}
			if step.Forward {
				out.Patterns = append(out.Patterns, sparql.Pattern{S: cur, P: pt, O: next})
			} else {
				out.Patterns = append(out.Patterns, sparql.Pattern{S: next, P: pt, O: cur})
			}
			cur = next
		}
		if len(chain) > 2 {
			addDistinct(chain)
		}
	}
	addDistinct(terms)
	return out, nil
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
