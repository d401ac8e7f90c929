package gqa

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/store"
)

// refBuildAnswer is the parent's buildAnswer, kept verbatim (renamed) as
// the reference the one-string IRI rendering is compared with: one
// Term.String, one "<" + IRI + ">" concatenation, per answer.
func (s *System) refBuildAnswer(res *core.Result) *Answer {
	out := &Answer{
		Boolean:       res.Boolean,
		Degraded:      res.Degraded,
		Understanding: res.Timing.Parse + res.Timing.Understanding,
		query:         res.Query,
		matches:       res.Matches,
	}
	if res.Failure != core.FailureNone {
		out.Failure = res.Failure.String()
		return out
	}
	out.OK = res.Boolean != nil || len(res.Answers) > 0 || res.Count != nil
	if n := len(res.Answers); n > 0 {
		// Only when there are answers: a nil slice is /answer's JSON null.
		out.Labels, out.IRIs = make([]string, 0, n), make([]string, 0, n)
	}
	for _, id := range res.Answers {
		out.Labels = append(out.Labels, s.core.Graph.LabelOf(id))
		out.IRIs = append(out.IRIs, s.core.Graph.Term(id).String())
	}
	if res.Count != nil {
		out.Labels = append(out.Labels, fmt.Sprintf("%d", *res.Count))
		out.IRIs = append(out.IRIs, fmt.Sprintf(`"%d"`, *res.Count))
	}
	if res.Matches.Len() > 0 && res.Query != nil && !res.Aggregated {
		if sq, err := core.ResolvedSPARQL(s.core.Graph, res.Matches, 0); err == nil {
			out.SPARQL = sq.String()
		}
	}
	return out
}

// answerWorkloads are the four workloads' graphs, dictionaries and
// questions.
func answerWorkloads(t *testing.T) []struct {
	name      string
	g         *store.Graph
	d         *dict.Dictionary
	questions []bench.Question
} {
	t.Helper()
	qald := bench.MustKB()
	qaldDict, _, err := bench.BuildDictionary(qald)
	if err != nil {
		t.Fatal(err)
	}
	yago, err := bench.BuildYagoKB()
	if err != nil {
		t.Fatal(err)
	}
	yagoDict, err := bench.BuildYagoDictionary(yago)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.NewNLScaleKB(100, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	cinema := bench.NewCinemaKB()
	return []struct {
		name      string
		g         *store.Graph
		d         *dict.Dictionary
		questions []bench.Question
	}{
		{"qald", qald, qaldDict, bench.Workload()},
		{"yago", yago, yagoDict, bench.YagoWorkload()},
		{"nlscale", nl.Graph, nl.Dict, nl.Questions},
		{"cinema", cinema.Graph, cinema.Dict, cinema.Questions},
	}
}

// TestBuildAnswerMatchesReference: on every question of qald, yago,
// nlscale and cinema — with the aggregation extension on for qald, so a
// count's rendering is met too — the answer buildAnswer builds equals the
// parent's byte for byte, Labels and IRIs included; a non-IRI answer still
// renders through Term.String, wherever it stands among IRIs.
func TestBuildAnswerMatchesReference(t *testing.T) {
	answers, literals, largest := 0, 0, 0
	for _, w := range answerWorkloads(t) {
		for _, aggregate := range []bool{false, true} {
			if aggregate && w.name != "qald" {
				continue
			}
			s := NewSystem(w.g, w.d, Options{EnableAggregation: aggregate})
			for _, q := range w.questions {
				res, err := s.core.Answer(q.Text)
				if err != nil {
					t.Fatalf("%s: %q: %v", w.name, q.Text, err)
				}
				got, want := s.buildAnswer(res), s.refBuildAnswer(res)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %q:\n got %q %q\nwant %q %q", w.name, q.Text, got.Labels, got.IRIs, want.Labels, want.IRIs)
				}
				for _, id := range res.Answers {
					if !w.g.Term(id).IsIRI() {
						literals++
					}
				}
				answers += len(res.Answers)
				largest = max(largest, len(res.Answers))
			}
		}
	}
	if literals == 0 {
		t.Error("no question has a non-IRI answer")
	}
	// No question mixes IRIs and literals in one answer list; every term of
	// the mini-DBpedia in ID order does.
	g := bench.MustKB()
	ids := make([]store.ID, g.NumTerms())
	for i := range ids {
		ids[i] = store.ID(i)
	}
	for i, got := range appendTerms(nil, g, ids) {
		if want := g.Term(ids[i]).String(); got != want {
			t.Fatalf("term %d renders %q, Term.String %q", i, got, want)
		}
	}
	t.Logf("%d answers, %d of them not IRIs; the most a question has is %d", answers, literals, largest)
}

// TestBuildAnswerAllocs bounds what building the answer of a question with
// a hundred answers allocates: four for the answer, its Labels and IRIs and
// the one string the IRIs are sliced from, and fourteen for the resolved
// SPARQL of its best match (the parent's loop made 117). A string per
// answer would break the bound.
func TestBuildAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	nl, err := bench.NewNLScaleKB(100, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(nl.Graph, nl.Dict, Options{})
	var res *core.Result
	for _, q := range nl.Questions {
		r, err := s.core.Answer(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil || len(r.Answers) > len(res.Answers) {
			res = r
		}
	}
	if len(res.Answers) < 96 {
		t.Fatalf("the largest answer set is %d, want a question with a hundred answers", len(res.Answers))
	}
	const ceiling = 4 + 14
	allocs := testing.AllocsPerRun(100, func() { s.buildAnswer(res) })
	ref := testing.AllocsPerRun(100, func() { s.refBuildAnswer(res) })
	t.Logf("%d answers: %v allocations, the parent's %v", len(res.Answers), allocs, ref)
	if allocs > ceiling {
		t.Errorf("buildAnswer allocates %v times for %d answers, at most %d", allocs, len(res.Answers), ceiling)
	}
}

// TestCastOfQuestionAllocs bounds what a warm cast-of-director question
// costs through the facade on the cinema test KB, where its 32 matches tie
// in one score run: at most 12 KiB a question. The parent, which copied a
// path header per edge into every match and deduplicated the answers
// through a map, took 15.2 KB; this change takes 10.7 KB.
func TestCastOfQuestionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	kb := bench.NewCinemaKB()
	s := NewSystem(kb.Graph, kb.Dict, Options{})
	q := kb.Questions[0].Text
	ask := func() {
		if ans, err := s.Answer(q); err != nil || !ans.OK {
			t.Fatalf("%q: %v", q, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ask()
	const runs, ceiling = 200, 12 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		ask()
	}
	runtime.ReadMemStats(&after)
	bytes, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("%q: %d bytes in %d allocations a question", q, bytes, allocs)
	if bytes > ceiling {
		t.Errorf("a warm cast-of question allocates %d bytes, at most %d", bytes, ceiling)
	}
}
