package core

import (
	"context"
	"encoding/json"
	"testing"

	"gqa/internal/budget"
	"gqa/internal/dict"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// TestRunningExampleEndToEnd is the paper's headline demonstration: the
// ambiguous question resolves, through subgraph matching alone, to
// ⟨Melanie_Griffith⟩ — and the Philadelphia_76ers reading dies because no
// matching subgraph contains it.
func TestRunningExampleEndToEnd(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureNone {
		t.Fatalf("failure = %v", res.Failure)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("no answers; query: %s", res.Query)
	}
	if res.Answers[0] != ids["Melanie_Griffith"] {
		t.Fatalf("top answer = %s, want Melanie_Griffith (all: %v)",
			s.Graph.Term(res.Answers[0]), res.AnswerLabels(s.Graph))
	}
	// Disambiguation: no match may bind any vertex to the 76ers or the
	// city — the data rules both out.
	for _, m := range res.Matches {
		for _, u := range m.Assignment {
			if u == ids["Philadelphia_76ers"] || u == ids["Philadelphia"] {
				t.Fatalf("false-positive mapping survived: %s", s.Graph.Term(u))
			}
		}
	}
}

func TestRunningExampleStructure(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	// Two semantic relations, three vertices (who / actor=that /
	// Philadelphia), two edges sharing the actor vertex.
	if len(res.Relations) != 2 {
		t.Fatalf("got %d relations: %+v", len(res.Relations), res.Relations)
	}
	q := res.Query
	if len(q.Vertices) != 3 || len(q.Edges) != 2 {
		t.Fatalf("Q^S shape: %d vertices, %d edges (%s)", len(q.Vertices), len(q.Edges), q)
	}
	// The actor vertex is shared between the two edges (coreference).
	shared := -1
	for _, v := range []int{q.Edges[0].From, q.Edges[0].To} {
		for _, w := range []int{q.Edges[1].From, q.Edges[1].To} {
			if v == w {
				shared = v
			}
		}
	}
	if shared < 0 {
		t.Fatalf("edges do not share a vertex: %s", q)
	}
	// The top match maps the shared vertex to Antonio Banderas via class
	// Actor and the Philadelphia vertex to the film.
	if len(res.Matches) == 0 {
		t.Fatal("no matches")
	}
	m := res.Matches[0]
	foundBanderas, foundFilm := false, false
	for _, u := range m.Assignment {
		if u == ids["Antonio_Banderas"] {
			foundBanderas = true
		}
		if u == ids["Philadelphia_(film)"] {
			foundFilm = true
		}
	}
	if !foundBanderas || !foundFilm {
		t.Fatalf("top match assignment wrong: %v", m.Assignment)
	}
	if q.SelectVertex() < 0 {
		t.Fatal("no select vertex")
	}
}

func TestSimpleFactQuestion(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Which movies did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != ids["Philadelphia_(film)"] {
		t.Fatalf("answers = %v", res.AnswerLabels(s.Graph))
	}
}

func TestPrepositionFrontingSameAnswer(t *testing.T) {
	s, _ := figure1System(t, Options{})
	a, err := s.Answer("Which movies did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Answer("In which movies did Antonio Banderas star?")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Answers) != len(b.Answers) || len(a.Answers) == 0 || a.Answers[0] != b.Answers[0] {
		t.Fatalf("fronting changed the answer: %v vs %v",
			a.AnswerLabels(s.Graph), b.AnswerLabels(s.Graph))
	}
}

func TestReducedRelative(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Give me all movies directed by Jonathan Demme.")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0] != ids["Philadelphia_(film)"] {
		t.Fatalf("answers = %v (failure %v, query %v)", res.AnswerLabels(s.Graph), res.Failure, res.Query)
	}
}

func TestBooleanQuestion(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Was Melanie Griffith married to Antonio Banderas?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Boolean == nil || !*res.Boolean {
		t.Fatalf("want true boolean, got %+v (query %v)", res.Boolean, res.Query)
	}
	res, err = s.Answer("Was Melanie Griffith married to Jonathan Demme?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Boolean == nil || *res.Boolean {
		t.Fatalf("want false boolean, got %+v", res.Boolean)
	}
}

func TestAggregationDetected(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Who is the youngest player in the Premier League?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureAggregation {
		t.Fatalf("failure = %v, want aggregation", res.Failure)
	}
	res, err = s.Answer("How many movies did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureAggregation {
		t.Fatalf("failure = %v, want aggregation", res.Failure)
	}
}

// TestAggregationRunsThePipelineOnce: an aggregation question is one
// pipeline run — one parse span (the base question is parsed inside it),
// one understand, one match, one question counted — and its root span
// carries what the one budget tracker spent.
func TestAggregationRunsThePipelineOnce(t *testing.T) {
	s, _ := figure1System(t, Options{EnableAggregation: true, Budget: budget.Limits{MaxSteps: 1000}})
	tr := obs.NewTrace("answer", "")
	before := questionsTotal.Value()
	res, err := s.AnswerContext(obs.WithTrace(context.Background(), tr), "How many movies did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if res.Count == nil || *res.Count != 1 || res.Failure != FailureNone {
		t.Fatalf("count = %v, failure %v; want 1", res.Count, res.Failure)
	}
	if d := questionsTotal.Value() - before; d != 1 {
		t.Errorf("gqa_core_questions_total moved by %d, want 1", d)
	}
	var trace struct {
		Span struct {
			Attrs map[string]any
			Spans []struct{ Name string }
		}
	}
	if err := json.Unmarshal([]byte(tr.JSON()), &trace); err != nil {
		t.Fatal(err)
	}
	root := trace.Span
	children := map[string]int{}
	for _, c := range root.Spans {
		children[c.Name]++
	}
	for _, stage := range []string{"nlp.parse", "core.understand", "core.match"} {
		if children[stage] != 1 {
			t.Errorf("root has %d %s children, want 1 (children %v)", children[stage], stage, children)
		}
	}
	if _, ok := root.Attrs["budget_steps"]; !ok {
		t.Errorf("root attributes %v carry no budget_steps", root.Attrs)
	}
}

// TestNestedAggregationFails: one operator per question. A count whose
// base question still holds an unmaterialized superlative would count every
// actor's films, so it fails as aggregation instead.
func TestNestedAggregationFails(t *testing.T) {
	s, _ := figure1System(t, Options{EnableAggregation: true})
	res, err := s.Answer("How many movies did the youngest actor star in?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureAggregation || res.Count != nil {
		t.Fatalf("failure = %v, count %v; want the aggregation failure", res.Failure, res.Count)
	}
}

func TestEntityLinkingFailure(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Who was married to Zanzibar Quux?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureEntityLinking {
		t.Fatalf("failure = %v, want entity-linking (query %v)", res.Failure, res.Query)
	}
}

func TestRelationExtractionFailure(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Who knows the frobnicated quux of Banderas?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureRelationExtraction {
		t.Fatalf("failure = %v (query %v)", res.Failure, res.Query)
	}
}

func TestNoMatchFailure(t *testing.T) {
	s, _ := figure1System(t, Options{})
	// Well-formed but unsupported by data: nobody married McKie.
	res, err := s.Answer("Who was married to Aaron McKie?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureNoMatch {
		t.Fatalf("failure = %v, answers %v", res.Failure, res.AnswerLabels(s.Graph))
	}
}

func TestTypeOnlyFallback(t *testing.T) {
	s, ids := figure1System(t, Options{})
	res, err := s.Answer("Give me all movies.")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != FailureNone || len(res.Answers) != 1 || res.Answers[0] != ids["Philadelphia_(film)"] {
		t.Fatalf("type-only: failure %v answers %v", res.Failure, res.AnswerLabels(s.Graph))
	}
}

func TestTimingsPopulated(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Understanding <= 0 || res.Timing.Total < res.Timing.Understanding {
		t.Fatalf("timings: %+v", res.Timing)
	}
}

func TestEmptyQuestionErrors(t *testing.T) {
	s, _ := figure1System(t, Options{})
	if _, err := s.Answer("   "); err == nil {
		t.Fatal("expected error")
	}
}

func TestAnswerDedup(t *testing.T) {
	s, _ := figure1System(t, Options{})
	res, err := s.Answer("Who was married to Antonio Banderas?")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[store.ID]bool{}
	for _, a := range res.Answers {
		if seen[a] {
			t.Fatalf("duplicate answer %v", a)
		}
		seen[a] = true
	}
}

func TestConjunctiveArguments(t *testing.T) {
	// Extend the Figure 1 graph with a film starring two actors *before*
	// building the system (the linker indexes at construction time), then
	// ask the intersective question.
	g, ids := figure1Graph(t)
	zorro := g.Intern(rdfRes("The_Mask_of_Zorro"))
	hopkins := g.Intern(rdfRes("Anthony_Hopkins"))
	g.AddSPO(zorro, ids["starring"], ids["Antonio_Banderas"])
	g.AddSPO(zorro, ids["starring"], hopkins)
	g.AddSPO(zorro, g.TypeID(), ids["Film"])
	d := figure1Dict(ids)
	d.Add("star", []dict.Entry{
		{Path: dict.Path{{Pred: ids["starring"], Forward: true}}, Score: 1.0},
	})
	s := NewSystem(g, d, Options{TopK: 10})

	res, err := s.Answer("Which movies star Antonio Banderas and Anthony Hopkins?")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relations) != 2 {
		t.Fatalf("relations = %d: %+v", len(res.Relations), res.Relations)
	}
	if len(res.Answers) != 1 || res.Answers[0] != zorro {
		t.Fatalf("answers = %v (query %v)", res.AnswerLabels(g), res.Query)
	}
}
