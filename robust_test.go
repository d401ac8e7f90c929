package gqa

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gqa/internal/faultpoint"
)

// The running example resolves through the dictionary + matcher; its
// search is the longest of the bundled-KB questions and exercises every
// budget checkpoint.
const runningExample = "Who was married to an actor that played in Philadelphia?"

// TestAnswerContextDeadlineDegrades is the headline degradation contract:
// with a 1ms deadline (made unmeetable by a deterministic matcher delay)
// AnswerContext must return promptly — well within 100ms — with no error,
// no panic, and Degraded naming the deadline. The partial top-k found
// before the budget ran out is still returned.
func TestAnswerContextDeadlineDegrades(t *testing.T) {
	sys := benchmarkSystem(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 2 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	ans, err := sys.AnswerContext(ctx, runningExample)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("degraded answer took %v, want < 100ms", elapsed)
	}
	if ans.Degraded != "deadline" {
		t.Fatalf("Degraded = %q, want \"deadline\" (answer: %+v)", ans.Degraded, ans)
	}
}

// TestBudgetsOffBitIdentical: with a Background context and a zero Budget,
// AnswerContext must produce exactly the seed engine's answers.
func TestBudgetsOffBitIdentical(t *testing.T) {
	sys := benchmarkSystem(t)
	questions := []string{
		runningExample,
		"Who is the mayor of Berlin?",
		"Is Berlin the capital of Germany?",
		"Give me all companies in Munich.",
	}
	for _, q := range questions {
		plain, err := sys.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		budgeted, err := sys.AnswerContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if budgeted.Degraded != "" {
			t.Fatalf("%q: unbudgeted call degraded: %q", q, budgeted.Degraded)
		}
		if len(plain.Labels) != len(budgeted.Labels) {
			t.Fatalf("%q: labels %v vs %v", q, plain.Labels, budgeted.Labels)
		}
		for i := range plain.Labels {
			if plain.Labels[i] != budgeted.Labels[i] || plain.IRIs[i] != budgeted.IRIs[i] {
				t.Fatalf("%q: answer %d differs: %s vs %s", q, i, plain.Labels[i], budgeted.Labels[i])
			}
		}
		if plain.SPARQL != budgeted.SPARQL || plain.Failure != budgeted.Failure || plain.OK != budgeted.OK {
			t.Fatalf("%q: results differ: %+v vs %+v", q, plain, budgeted)
		}
	}
}

func TestStepBudgetDegrades(t *testing.T) {
	base := benchmarkSystem(t)
	sys := NewSystem(base.Graph(), base.Dictionary(), Options{
		Budget: Budget{MaxSearchSteps: 1},
	})
	ans, err := sys.AnswerContext(context.Background(), runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded != "steps" {
		t.Fatalf("Degraded = %q, want \"steps\"", ans.Degraded)
	}
}

func TestCandidateBudgetDegrades(t *testing.T) {
	base := benchmarkSystem(t)
	sys := NewSystem(base.Graph(), base.Dictionary(), Options{
		Budget: Budget{MaxCandidates: 1},
	})
	ans, err := sys.AnswerContext(context.Background(), runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded != "candidates" {
		t.Fatalf("Degraded = %q, want \"candidates\"", ans.Degraded)
	}
}

func TestSPARQLRowBudgetTruncates(t *testing.T) {
	base := benchmarkSystem(t)
	sys := NewSystem(base.Graph(), base.Dictionary(), Options{
		Budget: Budget{MaxSPARQLRows: 1},
	})
	res, err := sys.QueryContext(context.Background(),
		`SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != "rows" {
		t.Fatalf("Truncated = %q, want \"rows\"", res.Truncated)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want the 1 row found within budget", len(res.Rows))
	}
}

func TestQueryContextCanceled(t *testing.T) {
	sys := benchmarkSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled before the call
	res, err := sys.QueryContext(ctx, `SELECT ?f WHERE { ?f dbo:starring ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated != "canceled" {
		t.Fatalf("Truncated = %q, want \"canceled\"", res.Truncated)
	}
}

// --- Fault injection: the three named points of the acceptance criteria.

// Matcher delay: covered by TestAnswerContextDeadlineDegrades above
// (matcher.extend delay + deadline ⇒ partial result, Degraded set).

// SPARQL panic: a panic escaping the evaluator must surface as a
// structured *PipelineError carrying the query text, not crash.
func TestFaultSparqlPanicBecomesStructuredError(t *testing.T) {
	sys := benchmarkSystem(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.SparqlEval, faultpoint.Fault{PanicMsg: "injected eval fault"})

	query := `SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }`
	_, err := sys.Query(query)
	var perr *PipelineError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PipelineError", err)
	}
	if perr.Stage != "query" || perr.Input != query {
		t.Fatalf("PipelineError = %+v", perr)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// Matcher panic: same containment on the natural-language path; the error
// must carry the question text, the value the panic was raised with, and
// the stack it was raised on — the search runs on the caller's goroutine,
// so the stack the facade captures is the matcher's own.
func TestFaultMatcherPanicBecomesStructuredError(t *testing.T) {
	sys := benchmarkSystem(t)
	for _, point := range []string{faultpoint.MatcherExtend, faultpoint.MatcherWorker} {
		faultpoint.Reset()
		faultpoint.Set(point, faultpoint.Fault{PanicMsg: "injected matcher fault"})
		_, err := sys.Answer(runningExample)
		faultpoint.Reset()

		var perr *PipelineError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: err = %v, want *PipelineError", point, err)
		}
		if perr.Stage != "answer" || perr.Input != runningExample {
			t.Fatalf("%s: PipelineError = %+v", point, perr)
		}
		if want := "faultpoint " + point + ": injected matcher fault"; perr.Value != want {
			t.Errorf("%s: panic value %T (%v), want the string %q", point, perr.Value, perr.Value, want)
		}
		if !strings.Contains(string(perr.Stack), "(*matcher).runSeed") {
			t.Errorf("%s: the stack does not name (*matcher).runSeed:\n%s", point, perr.Stack)
		}
	}
}

// Store delay: a slow pattern scan under a deadline degrades the SPARQL
// evaluation to the rows found in time instead of hanging.
func TestFaultStoreDelayDegradesQuery(t *testing.T) {
	sys := benchmarkSystem(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.StoreMatch, faultpoint.Fault{Delay: 2 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := sys.QueryContext(ctx, `SELECT ?f ?a WHERE { ?f dbo:starring ?a . ?f rdf:type dbo:Film }`)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("degraded query took %v, want < 100ms", elapsed)
	}
	if res.Truncated != "deadline" {
		t.Fatalf("Truncated = %q, want \"deadline\"", res.Truncated)
	}
}

// The Options.Budget.Timeout knob works without any caller-side context.
func TestOptionsTimeoutDegrades(t *testing.T) {
	base := benchmarkSystem(t)
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Set(faultpoint.MatcherExtend, faultpoint.Fault{Delay: 2 * time.Millisecond})

	sys := NewSystem(base.Graph(), base.Dictionary(), Options{
		Budget: Budget{Timeout: time.Millisecond},
	})
	ans, err := sys.AnswerContext(context.Background(), runningExample)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded != "deadline" {
		t.Fatalf("Degraded = %q, want \"deadline\"", ans.Degraded)
	}
}
