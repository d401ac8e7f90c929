package gqa

// Answer-cache layer of the facade. Serving traffic is heavily repetitive,
// so AnswerContext consults a generation-aware LRU (see internal/qcache)
// before running the pipeline (SPARQL results are not cached: no endpoint
// serves SPARQL, and QueryContext evaluates every time):
//
//   - Keys are (normalized input, graph mutation generation, engine salt).
//     Any graph mutation bumps the generation and silently retires every
//     cached result; replacing the dictionary or registering a superlative
//     bumps the salt. The options need no part in the key: each System owns
//     its cache, and its options are fixed at NewSystem.
//   - Entries are immutable copies: the pipeline's answer is cloned into
//     the cache, and every hit clones back out, so no caller can mutate a
//     shared Answer.
//   - Degraded/truncated results are never cached. They reflect the
//     caller's budget, not the data — a cached one would serve someone
//     else's timeout forever.
//   - Identical in-flight questions coalesce: N concurrent calls run the
//     pipeline once and share the (cloned) result.
//
// The stored value is the answer itself, its resolved Q^S and matches
// included, so ExplainContext over a cached answer renders exactly the lines
// an uncached run would.

import (
	"context"
	"strconv"
	"strings"

	"gqa/internal/core"
	"gqa/internal/obs"
)

// normalizeQuestion canonicalizes insignificant whitespace — the tokenizer
// splits on it, so "who  is" and "who is" are the same question. Case is
// preserved: it can carry meaning through entity mentions.
func normalizeQuestion(q string) string {
	return strings.Join(strings.Fields(q), " ")
}

// cacheKey assembles the cache key for one normalized question. The
// graph's mutation generation and the salt are the invalidation tokens
// (any Add/Remove retires every entry — how the store is laid out in parts
// changes no answer, so it is not in the key). The budget is absent too:
// budget-shaped answers are degraded and never cached.
func (s *System) cacheKey(input string) string {
	b := make([]byte, 0, len(input)+24)
	b = append(b, input...)
	b = append(b, 0, 'g')
	b = strconv.AppendUint(b, s.core.Graph.Generation(), 10)
	b = append(b, '.', 's')
	b = strconv.AppendUint(b, s.cacheSalt.Load(), 10)
	return string(b)
}

// clone returns a copy of the answer sharing no mutable state with the
// receiver; the resolved Q^S and matches, which nothing mutates, are
// shared. The trace is dropped: it belongs to the call that recorded it,
// never to the cache.
func (a *Answer) clone() *Answer {
	cp := *a
	cp.Labels = append([]string(nil), a.Labels...)
	cp.IRIs = append([]string(nil), a.IRIs...)
	if a.Boolean != nil {
		b := *a.Boolean
		cp.Boolean = &b
	}
	cp.Trace = nil
	return &cp
}

// answerCached is AnswerShed's cache-enabled path: look up, coalesce, or
// run the pipeline and store. Callers have already applied the timeout
// and frozen the graph; eng carries any per-call shed budget. The shed
// tier deliberately stays out of the cache key: a complete (non-degraded)
// answer is identical at every tier — budgets only change results when
// they truncate, and truncated results are never cached — so entries
// written at tier 0 serve tier-3 callers and vice versa, which is exactly
// what keeps an overloaded server fast.
func (s *System) answerCached(ctx context.Context, question string, eng *core.System, tier int) (*Answer, error) {
	key := s.cacheKey(normalizeQuestion(question))
	sp := obs.TraceFrom(ctx).Root().Child("cache.lookup")
	var leaderAns *Answer
	v, outcome, err := s.cache.Do(ctx, key, func() (any, bool, error) {
		res, err := eng.AnswerContext(ctx, question)
		if err != nil {
			return nil, false, err
		}
		leaderAns = s.buildAnswer(res)
		if leaderAns.Degraded != "" {
			// Budget-shaped: correct for this caller, poison for the next.
			return nil, false, nil
		}
		return leaderAns.clone(), true, nil
	})
	sp.SetStr("outcome", string(outcome))
	sp.Finish()
	if err != nil {
		return nil, err
	}
	if leaderAns != nil {
		// This call ran the pipeline itself (miss or bypass); its answer
		// was never shared, so it needs no copy. The stored entry was
		// cloned before annotation, so the shed marking below stays
		// private to this caller.
		return shedAnnotate(leaderAns, tier), nil
	}
	// Hit or coalesced: a private copy of the shared entry, for a call that
	// understood nothing (AnswerShed times the call itself).
	ans := v.(*Answer).clone()
	ans.Understanding = 0
	return ans, nil
}
