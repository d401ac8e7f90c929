package core

// Aggregation extension (opt-in). The paper cannot answer counting or
// superlative questions — 35% of its failures (Table 10) — and sketches
// the ORDER BY … LIMIT 1 rewrite as future work. As in NLAQ (PAPERS.md),
// an aggregation here is an operator on the answers of Q^S: the parse
// stage reduces the question to its base question, the pipeline
// understands and matches that base question once, and then
//
//   - "How many X …?" counts its answers;
//   - "…the youngest X …?" keeps the answer that ranks first by the
//     numeric predicate registered for the adjective, read through the
//     frozen view the search read.
//
// Enabled with Options.EnableAggregation; off by default so the baseline
// experiments reproduce the paper's failure taxonomy.

import (
	"cmp"
	"strconv"
	"strings"

	"gqa/internal/budget"
	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// Superlative registers the meaning of a superlative adjective: entities
// are ranked by the numeric object of Pred; Max selects the largest value
// ("oldest", "highest"), otherwise the smallest ("youngest").
type Superlative struct {
	Adjective string // lowercase surface form, e.g. "youngest"
	Pred      store.ID
	Max       bool
}

// RegisterSuperlative adds a superlative interpretation to the system.
func (s *System) RegisterSuperlative(adj string, pred store.ID, max bool) {
	if s.superlatives == nil {
		s.superlatives = make(map[string]Superlative)
	}
	adj = strings.ToLower(adj)
	s.superlatives[adj] = Superlative{Adjective: adj, Pred: pred, Max: max}
}

// aggregate is the operator an aggregation question applies to the answers
// of its base question: count them, or keep the one sup ranks first.
type aggregate struct {
	count bool
	sup   Superlative // the ranking, when !count
	base  []nlp.Token // the base question's words
}

// aggregation scans y once. It reports whether y is an aggregation
// question: "how many/much", or a superlative adjective that no relation
// phrase materializes ("the largest city in" is ⟨largestCity⟩, the paper's
// Q86, answerable as it stands). With the extension on it also returns the
// operator, or nil when the question does not reduce:
//
//   - "How many films did X star in?" counts "Which films did X star in";
//   - "How many children did Y have?" counts "Give me the children of Y",
//     so the noun relation ("children of") carries the query;
//   - otherwise the first registered superlative adjective leaves the
//     words and ranks their answers.
func (s *System) aggregation(y *nlp.DepTree) (bool, *aggregate) {
	agg, supAt := false, -1
	for i := 0; i < y.Size(); i++ {
		n := y.Node(i)
		if n.Tag == "JJS" {
			if !agg {
				_, inPhrase := s.Dict.Probe(n.Lemma)
				agg = !inPhrase
			}
			if _, ok := s.superlatives[n.Lower]; ok && supAt < 0 {
				supAt = i
			}
		}
		if (n.Lower == "many" || n.Lower == "much") && i > 0 && y.Node(i-1).Lower == "how" {
			agg = true
		}
	}
	if !agg || !s.Opts.EnableAggregation {
		return agg, nil
	}
	word := func(w string) nlp.Token { return nlp.Token{Text: w, Lower: strings.ToLower(w)} }
	nodes := func(base []nlp.Token, from, to int) []nlp.Token {
		for i := from; i < to; i++ {
			base = append(base, y.Node(i).Token)
		}
		return base
	}
	size := y.Size()
	if size >= 3 && y.Node(0).Lower == "how" && (y.Node(1).Lower == "many" || y.Node(1).Lower == "much") {
		if last := y.Node(size - 1).Lemma; last == "have" || last == "get" {
			// The do-support auxiliary separates X from Y.
			did := -1
			for i := 2; i < size-1 && did < 0; i++ {
				if y.Node(i).Lemma == "do" {
					did = i
				}
			}
			if did > 2 && did < size-2 {
				base := nodes([]nlp.Token{word("Give"), word("me"), word("the")}, 2, did)
				return true, &aggregate{count: true, base: nodes(append(base, word("of")), did+1, size-1)}
			}
		}
		return true, &aggregate{count: true, base: nodes([]nlp.Token{word("Which")}, 2, size)}
	}
	if supAt >= 0 {
		base := nodes(nodes(nil, 0, supAt), supAt+1, size)
		return true, &aggregate{sup: s.superlatives[y.Node(supAt).Lower], base: base}
	}
	return true, nil
}

// apply applies the operator to res, its base question's result; view is
// the view the search read. A base question with no answer to aggregate is
// the aggregation failure, which keeps res's Degraded: a result a budget
// cut short is never cached.
func (op *aggregate) apply(res *Result, view store.View, tr *budget.Tracker, sp *obs.Span) *Result {
	switch {
	case res.Failure != FailureNone:
	case op.count:
		n := len(res.Answers)
		res.Count, res.Answers, res.Aggregated = &n, nil, true
		return res
	case len(res.Answers) > 0:
		// A remote read is bound to the request like the search's, so a shard
		// that fails it degrades the answer instead of leaving it unranked.
		sn, _ := view.(*store.Snapshot)
		if sn != nil {
			sn = sn.BindRequest(tr, sp)
			view = sn
		}
		best, ok := op.sup.best(view, res.Answers)
		res.Degraded = cmp.Or(res.Degraded, sn.DegradeReason())
		if ok {
			res.Answers, res.Aggregated = []store.ID{best}, true
			return res
		}
	}
	return &Result{Question: res.Question, Tree: res.Tree, Failure: FailureAggregation,
		Timing: res.Timing, Stats: res.Stats, Degraded: res.Degraded}
}

// best returns the entity of es that ranks first: the smallest (under Max,
// the largest) numeric object of sup.Pred, the earliest of equals. An
// entity without a parseable value is not ranked.
func (sup Superlative) best(view store.View, es []store.ID) (store.ID, bool) {
	best, bestV, found := store.None, 0.0, false
	for _, e := range es {
		for _, edge := range view.OutPred(e, sup.Pred) {
			t := view.Term(edge.To)
			if !t.IsLiteral() {
				continue
			}
			if v, err := strconv.ParseFloat(t.Value(), 64); err == nil {
				if !found || sup.Max && v > bestV || !sup.Max && v < bestV {
					best, bestV, found = e, v, true
				}
				break
			}
		}
	}
	return best, found
}
