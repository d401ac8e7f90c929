package sparql

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gqa/internal/budget"
	"gqa/internal/faultpoint"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// Row is one solution: variable name → bound term.
type Row map[string]rdf.Term

// Result holds the outcome of evaluating a query.
type Result struct {
	Kind    Kind
	Vars    []string // projected variables in order
	Rows    []Row    // SELECT solutions
	Boolean bool     // ASK outcome
	// Truncated is the budget-exhaustion reason ("deadline", "canceled",
	// "steps", "rows") when the join was cut short and Rows holds only the
	// solutions found in time; "" for a complete evaluation.
	Truncated string
}

// Eval evaluates a parsed query against the graph by backtracking join
// over the basic graph pattern, most-selective pattern first, with no
// budget.
func Eval(g *store.Graph, q *Query) (*Result, error) {
	return evalTracked(g, q, nil)
}

// EvalContext evaluates q under ctx and the given limits. An exhausted
// budget stops the backtracking join where it stands; the partial rows
// found so far are still filtered, ordered, and projected, and
// Result.Truncated names the exhausted resource. A Background context with
// zero limits is exactly Eval.
func EvalContext(ctx context.Context, g *store.Graph, q *Query, l budget.Limits) (*Result, error) {
	sp := obs.TraceFrom(ctx).Root().Child("sparql.eval")
	res, err := evalTracked(g, q, budget.New(ctx, l))
	if res != nil {
		sp.SetInt("rows", int64(len(res.Rows)))
		sp.SetStr("truncated", res.Truncated)
	}
	sp.Finish()
	return res, err
}

func evalTracked(g *store.Graph, q *Query, tr *budget.Tracker) (*Result, error) {
	res := &Result{Kind: q.Kind, Vars: q.Vars}
	if len(res.Vars) == 0 {
		res.Vars = q.AllVars()
	}
	for _, v := range res.Vars {
		if !containsVar(q, v) {
			return nil, fmt.Errorf("sparql: projected variable ?%s not used in pattern", v)
		}
	}

	// A constant-only pattern set (ASK with no vars) degenerates to
	// membership checks.
	binding := make(map[string]store.ID)
	order := planOrder(g, q.Patterns)

	// Capture the frozen view once for the whole evaluation. A snapshot
	// over remote parts binds to this evaluation's tracker so shard-RPC
	// deadlines follow the request budget and an unreachable shard degrades
	// (Truncated = "shard-unavailable") instead of hanging.
	view := g.FrozenView()
	var bound *store.Snapshot
	if sn, ok := view.(*store.Snapshot); ok {
		bound = sn.BindRequest(tr, nil)
		view = bound
	}
	match := view.Match

	limit := q.Limit
	want := -1 // unlimited
	if q.Kind == KindAsk && len(q.Filters) == 0 {
		want = 1
	} else if limit > 0 && len(q.OrderBy) == 0 && len(q.Filters) == 0 {
		want = q.Offset + limit
	}

	var rows []map[string]store.ID
	var walk func(step int) bool // returns true to stop
	walk = func(step int) bool {
		faultpoint.Hit(faultpoint.SparqlEval)
		if !tr.Step() {
			return true
		}
		if step == len(order) {
			if !tr.Row() {
				return true
			}
			cp := make(map[string]store.ID, len(binding))
			for k, v := range binding {
				cp[k] = v
			}
			rows = append(rows, cp)
			return want >= 0 && len(rows) >= want && !needDistinctOverflow(q)
		}
		pat := order[step]
		s, sOK := resolve(g, binding, pat.S)
		p, pOK := resolve(g, binding, pat.P)
		o, oOK := resolve(g, binding, pat.O)
		if !sOK || !pOK || !oOK {
			// A constant term absent from the graph: no solutions from
			// this branch.
			return false
		}
		stop := false
		match(s, p, o, func(t store.Spo) bool {
			var bound []string
			ok := true
			tryBind := func(term Term, id store.ID) {
				if !ok || !term.IsVar() {
					return
				}
				if prev, exists := binding[term.Var]; exists {
					if prev != id {
						ok = false
					}
					return
				}
				binding[term.Var] = id
				bound = append(bound, term.Var)
			}
			tryBind(pat.S, t.S)
			tryBind(pat.P, t.P)
			tryBind(pat.O, t.O)
			if ok && walk(step+1) {
				stop = true
			}
			for _, v := range bound {
				delete(binding, v)
			}
			return !stop
		})
		return stop
	}
	walk(0)
	res.Truncated = tr.Exhausted()
	if res.Truncated == "" {
		res.Truncated = bound.DegradeReason()
	}

	// FILTER constraints on the complete bindings.
	if len(q.Filters) > 0 {
		kept := rows[:0]
		for _, b := range rows {
			ok := true
			for _, f := range q.Filters {
				if !evalFilter(g, b, f) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, b)
			}
		}
		rows = kept
	}

	if q.Kind == KindAsk {
		res.Boolean = len(rows) > 0
		return res, nil
	}

	// ORDER BY before projection (keys need not be projected).
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return orderLess(g, rows[i], rows[j], q.OrderBy)
		})
	}

	// Project, deduplicate (DISTINCT), then apply OFFSET/LIMIT.
	seen := make(map[string]bool)
	for _, b := range rows {
		row := make(Row, len(res.Vars))
		var key strings.Builder
		for _, v := range res.Vars {
			if id, ok := b[v]; ok {
				row[v] = g.Term(id)
			}
			key.WriteString(row[v].Key())
			key.WriteByte('\x01')
		}
		if q.Distinct {
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
		}
		res.Rows = append(res.Rows, row)
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// needDistinctOverflow: with DISTINCT, stopping at `want` raw rows could
// undercount after dedup, so keep going.
func needDistinctOverflow(q *Query) bool { return q.Distinct }

func containsVar(q *Query, v string) bool {
	for _, p := range q.Patterns {
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.Var == v {
				return true
			}
		}
	}
	return false
}

// EvalString parses and evaluates in one step.
func EvalString(g *store.Graph, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(g, q)
}

// resolve maps a pattern term to a concrete ID (bound variable or interned
// constant) or the wildcard. ok=false means a constant that cannot match.
func resolve(g *store.Graph, binding map[string]store.ID, t Term) (store.ID, bool) {
	if t.IsVar() {
		if id, ok := binding[t.Var]; ok {
			return id, true
		}
		return store.Any, true
	}
	id, ok := g.Lookup(t.Const)
	if !ok {
		return store.Any, false
	}
	return id, true
}

// planOrder sorts patterns most-selective first: more constants first,
// then rarer predicates; patterns sharing variables with already-planned
// ones are preferred to keep the join connected.
func planOrder(g *store.Graph, pats []Pattern) []Pattern {
	remaining := append([]Pattern(nil), pats...)
	var out []Pattern
	boundVars := make(map[string]bool)

	selectivity := func(p Pattern) int {
		score := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			if !t.IsVar() || boundVars[t.Var] {
				score += 100
			}
		}
		if !p.P.IsVar() {
			if id, ok := g.Lookup(p.P.Const); ok {
				score -= g.PredCount(id) / 16
			}
		}
		return score
	}

	for len(remaining) > 0 {
		best, bestScore := 0, -1<<30
		for i, p := range remaining {
			if s := selectivity(p); s > bestScore {
				best, bestScore = i, s
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		out = append(out, p)
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.IsVar() {
				boundVars[t.Var] = true
			}
		}
	}
	return out
}

func boundTerm(g *store.Graph, b map[string]store.ID, v string) (rdf.Term, bool) {
	id, ok := b[v]
	if !ok {
		return rdf.Term{}, false
	}
	return g.Term(id), true
}

// orderLess is the ORDER BY comparator: does row a sort strictly before
// row b under keys? A row missing a key sorts after every bound row on
// that key, regardless of ASC/DESC (SPARQL puts unbound lowest; we follow
// the more useful serving convention of unbound-last either way).
func orderLess(g *store.Graph, a, b map[string]store.ID, keys []OrderKey) bool {
	for _, k := range keys {
		ta, aok := boundTerm(g, a, k.Var)
		tb, bok := boundTerm(g, b, k.Var)
		if !aok || !bok {
			if aok != bok {
				return aok // unbound sorts last
			}
			continue
		}
		c := compareTerms(ta, tb)
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// evalFilter evaluates one FILTER comparison under a binding. An unbound
// variable makes the filter false (SPARQL's error semantics).
func evalFilter(g *store.Graph, b map[string]store.ID, f Filter) bool {
	resolveOperand := func(t Term) (rdf.Term, bool) {
		if t.IsVar() {
			return boundTerm(g, b, t.Var)
		}
		return t.Const, true
	}
	l, lok := resolveOperand(f.Left)
	r, rok := resolveOperand(f.Right)
	if !lok || !rok {
		return false
	}
	c := compareTerms(l, r)
	switch f.Op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// compareTerms compares numerically when both terms are numeric literals,
// lexicographically (Term ordering) otherwise.
func compareTerms(a, b rdf.Term) int {
	if av, aok := numericValue(a); aok {
		if bv, bok := numericValue(b); bok {
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		}
	}
	return a.Compare(b)
}

func numericValue(t rdf.Term) (float64, bool) {
	if !t.IsLiteral() {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value(), 64)
	return v, err == nil
}

// SortRows orders rows deterministically by the projected variables —
// useful for tests and stable CLI output.
func SortRows(res *Result) {
	sort.SliceStable(res.Rows, func(i, j int) bool {
		for _, v := range res.Vars {
			c := res.Rows[i][v].Compare(res.Rows[j][v])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}
