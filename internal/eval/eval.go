// Package eval drives the benchmark workload through both engines (the
// graph data-driven system and the DEANNA baseline) and computes the
// QALD-style metrics of Table 8: processed / right / partially answered
// counts and macro precision / recall / F-1.
package eval

import (
	"sort"
	"strconv"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/deanna"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// Outcome classifies one question's result against the gold standard.
type Outcome int

const (
	// OutcomeRight: the returned answer set equals the gold set (for
	// booleans: the truth value matches). The paper's "answered correctly".
	OutcomeRight Outcome = iota
	// OutcomePartial: a non-empty proper overlap with the gold set.
	OutcomePartial
	// OutcomeWrong: answers returned, none correct.
	OutcomeWrong
	// OutcomeFailed: no answers produced (any failure kind).
	OutcomeFailed
	// OutcomeAbstained: the question is deliberately unanswerable and the
	// system produced nothing — the desired behaviour for that stratum.
	OutcomeAbstained
)

// QuestionResult is one scored question.
type QuestionResult struct {
	Question  bench.Question
	Outcome   Outcome
	Precision float64
	Recall    float64
	F1        float64
	Answers   []rdf.Term
	Boolean   *bool
	Failure   core.FailureKind // ours only; FailureNone for the baseline
	Processed bool             // a query was produced and evaluated

	// Understanding is Figure 6's, which includes parsing: the sum of
	// Timing.Parse and Timing.Understanding.
	Understanding time.Duration
	Total         time.Duration
}

// Summary aggregates a run in Table 8's format. Macro metrics average over
// the answerable questions (the gold-bearing subset).
type Summary struct {
	Questions  int
	Processed  int
	Right      int
	Partial    int
	Answerable int
	Recall     float64
	Precision  float64
	F1         float64
}

// RunOurs evaluates the graph data-driven system over the workload.
func RunOurs(s *core.System, qs []bench.Question) []QuestionResult {
	out := make([]QuestionResult, 0, len(qs))
	for _, q := range qs {
		qr := QuestionResult{Question: q}
		res, err := s.Answer(q.Text)
		if err == nil {
			qr.Failure = res.Failure
			qr.Processed = res.Query != nil && res.Failure != core.FailureEntityLinking
			qr.Understanding = res.Timing.Parse + res.Timing.Understanding
			qr.Total = res.Timing.Total
			for _, id := range res.Answers {
				qr.Answers = append(qr.Answers, s.Graph.Term(id))
			}
			if res.Count != nil {
				// Counting answers (aggregation extension) are rendered
				// as a numeric literal for gold comparison.
				qr.Answers = append(qr.Answers,
					rdf.NewTypedLiteral(strconv.Itoa(*res.Count), rdf.XSDDouble))
			}
			qr.Boolean = res.Boolean
		}
		score(&qr)
		out = append(out, qr)
	}
	return out
}

// RunDeanna evaluates the baseline over the workload.
func RunDeanna(s *deanna.System, qs []bench.Question) []QuestionResult {
	out := make([]QuestionResult, 0, len(qs))
	for _, q := range qs {
		qr := QuestionResult{Question: q}
		res, err := s.Answer(q.Text)
		if err == nil {
			qr.Processed = len(res.Queries) > 0
			qr.Understanding = res.Timing.Parse + res.Timing.Understanding
			qr.Total = res.Timing.Total
			for _, id := range res.Answers {
				qr.Answers = append(qr.Answers, s.Graph.Term(id))
			}
			qr.Boolean = res.Boolean
		}
		score(&qr)
		out = append(out, qr)
	}
	return out
}

// score fills Outcome and P/R/F1 from the gold standard.
func score(qr *QuestionResult) {
	q := qr.Question
	switch {
	case q.Bool != nil:
		if qr.Boolean == nil {
			qr.Outcome = OutcomeFailed
			return
		}
		if *qr.Boolean == *q.Bool {
			qr.Outcome = OutcomeRight
			qr.Precision, qr.Recall, qr.F1 = 1, 1, 1
		} else {
			qr.Outcome = OutcomeWrong
		}
	case len(q.Gold) > 0:
		if len(qr.Answers) == 0 {
			qr.Outcome = OutcomeFailed
			return
		}
		correct := 0
		for _, a := range qr.Answers {
			for _, g := range q.Gold {
				if termsMatch(g, a) {
					correct++
					break
				}
			}
		}
		qr.Precision = float64(correct) / float64(len(qr.Answers))
		qr.Recall = float64(correct) / float64(len(q.Gold))
		if qr.Precision+qr.Recall > 0 {
			qr.F1 = 2 * qr.Precision * qr.Recall / (qr.Precision + qr.Recall)
		}
		switch {
		case correct == len(q.Gold) && correct == len(qr.Answers):
			qr.Outcome = OutcomeRight
		case correct > 0:
			qr.Outcome = OutcomePartial
		default:
			qr.Outcome = OutcomeWrong
		}
	default:
		// Deliberately unanswerable stratum.
		if len(qr.Answers) == 0 && qr.Boolean == nil {
			qr.Outcome = OutcomeAbstained
		} else {
			qr.Outcome = OutcomeWrong
		}
	}
}

// termsMatch compares an answer to a gold term: identical terms match, and
// numeric literals match by value regardless of lexical form or datatype
// ("3" == "3.0").
func termsMatch(gold, answer rdf.Term) bool {
	if gold == answer {
		return true
	}
	if gold.IsLiteral() && answer.IsLiteral() {
		gv, gerr := strconv.ParseFloat(gold.Value(), 64)
		av, aerr := strconv.ParseFloat(answer.Value(), 64)
		return gerr == nil && aerr == nil && gv == av
	}
	return false
}

// Summarize aggregates question results.
func Summarize(results []QuestionResult) Summary {
	var s Summary
	s.Questions = len(results)
	for _, r := range results {
		if r.Processed {
			s.Processed++
		}
		switch r.Outcome {
		case OutcomeRight:
			s.Right++
		case OutcomePartial:
			s.Partial++
		}
		if r.Question.Answerable() {
			s.Answerable++
			s.Precision += r.Precision
			s.Recall += r.Recall
			s.F1 += r.F1
		}
	}
	if s.Answerable > 0 {
		s.Precision /= float64(s.Answerable)
		s.Recall /= float64(s.Answerable)
		s.F1 /= float64(s.Answerable)
	}
	return s
}

// FailureBreakdown tallies failure kinds over the questions our system did
// not answer (Table 10). Only meaningful for RunOurs results.
func FailureBreakdown(results []QuestionResult) map[core.FailureKind]int {
	out := make(map[core.FailureKind]int)
	for _, r := range results {
		if r.Outcome == OutcomeRight || r.Outcome == OutcomePartial {
			continue
		}
		if r.Question.Answerable() || r.Failure != core.FailureNone {
			out[r.Failure]++
		}
	}
	return out
}

// CorrectlyAnswered returns the rows of Table 11: each correctly answered
// question with its total response time, sorted by question ID.
func CorrectlyAnswered(results []QuestionResult) []QuestionResult {
	var out []QuestionResult
	for _, r := range results {
		if r.Outcome == OutcomeRight {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Question.ID < out[j].Question.ID })
	return out
}

// BuildSystems constructs both engines over the mini-DBpedia with a mined
// dictionary — the standard experimental setup.
func BuildSystems() (*core.System, *deanna.System, *store.Graph, error) {
	g, err := bench.BuildKB()
	if err != nil {
		return nil, nil, nil, err
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		return nil, nil, nil, err
	}
	ours := core.NewSystem(g, d, core.Options{TopK: 10})
	base := deanna.NewSystem(g, d, deanna.Options{})
	return ours, base, g, nil
}
