// Package sparql implements the SPARQL subset gqa needs: SELECT/ASK
// queries over basic graph patterns with DISTINCT, LIMIT and OFFSET,
// evaluated against the in-memory store by backtracking join.
//
// Existing RDF Q/A systems translate questions into SPARQL and evaluate
// those (§1.1); the DEANNA baseline in this repository does exactly that,
// and this package is its execution substrate (standing in for gStore
// [33]). It is also a convenient power-user API alongside natural-language
// querying.
package sparql

import (
	"strconv"
	"strings"

	"gqa/internal/rdf"
)

// Kind discriminates query forms.
type Kind int

const (
	// KindSelect is a SELECT query returning variable bindings.
	KindSelect Kind = iota
	// KindAsk is an ASK query returning a boolean.
	KindAsk
)

// Term is one position of a triple pattern: either a variable (Var != "")
// or a constant RDF term.
type Term struct {
	Var   string
	Const rdf.Term
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// writeTo writes what String returns.
func (t Term) writeTo(b *strings.Builder) {
	switch {
	case t.IsVar():
		b.WriteByte('?')
		b.WriteString(t.Var)
	case t.Const.IsIRI():
		b.WriteByte('<')
		b.WriteString(t.Const.Value())
		b.WriteByte('>')
	default:
		b.WriteString(t.Const.String())
	}
}

// Pattern is one triple pattern of a basic graph pattern.
type Pattern struct {
	S, P, O Term
}

func (p Pattern) writeTo(b *strings.Builder) {
	p.S.writeTo(b)
	b.WriteByte(' ')
	p.P.writeTo(b)
	b.WriteByte(' ')
	p.O.writeTo(b)
	b.WriteString(" .")
}

// FilterOp is a comparison operator in a FILTER expression.
type FilterOp int

const (
	OpEq FilterOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o FilterOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Filter is a binary comparison constraint: FILTER(?x > 10). Numeric
// literals compare numerically; everything else compares by Term ordering.
type Filter struct {
	Left  Term
	Op    FilterOp
	Right Term
}

func (f Filter) writeTo(b *strings.Builder) {
	b.WriteString("FILTER(")
	f.Left.writeTo(b)
	b.WriteByte(' ')
	b.WriteString(f.Op.String())
	b.WriteByte(' ')
	f.Right.writeTo(b)
	b.WriteByte(')')
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Query is a parsed SPARQL query.
type Query struct {
	Kind     Kind
	Vars     []string // projection; empty means SELECT *
	Distinct bool
	Patterns []Pattern
	Filters  []Filter
	OrderBy  []OrderKey
	Limit    int // 0 = unlimited
	Offset   int
}

// String renders the query in SPARQL syntax, into one builder.
func (q *Query) String() string {
	// A pattern of two full IRIs and a variable renders to ~110 bytes: grow
	// once, with room to spare, rather than double the builder as it fills.
	var b strings.Builder
	b.Grow(64 + 160*len(q.Patterns) + 48*len(q.Filters))
	switch q.Kind {
	case KindAsk:
		b.WriteString("ASK")
	default:
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if len(q.Vars) == 0 {
			b.WriteString("*")
		} else {
			for i, v := range q.Vars {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteByte('?')
				b.WriteString(v)
			}
		}
	}
	b.WriteString(" WHERE { ")
	for _, p := range q.Patterns {
		p.writeTo(&b)
		b.WriteByte(' ')
	}
	for _, f := range q.Filters {
		f.writeTo(&b)
		b.WriteByte(' ')
	}
	b.WriteString("}")
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				b.WriteString(" DESC(?")
			} else {
				b.WriteString(" ASC(?")
			}
			b.WriteString(k.Var)
			b.WriteByte(')')
		}
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.Itoa(q.Offset))
	}
	return b.String()
}

// AllVars returns the variables mentioned in the patterns, in first-use
// order.
func (q *Query) AllVars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(t Term) {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	for _, p := range q.Patterns {
		add(p.S)
		add(p.P)
		add(p.O)
	}
	return out
}
