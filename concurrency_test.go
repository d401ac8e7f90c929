package gqa

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentAnswer exercises the facade's concurrency contract: a
// built System serves questions from many goroutines (run under -race in
// CI via `go test -race ./...`).
func TestConcurrentAnswer(t *testing.T) {
	sys := benchmarkSystem(t)
	questions := []string{
		"Who is the mayor of Berlin?",
		"Which movies did Antonio Banderas star in?",
		"Who was married to an actor that played in Philadelphia?",
		"Is Berlin the capital of Germany?",
		"Give me all companies in Munich.",
		"Who is the uncle of John F. Kennedy Jr.?",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(questions)*8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range questions {
				ans, err := sys.Answer(q)
				if err != nil {
					errs <- err
					return
				}
				if i%2 == 0 && !ans.OK && ans.Boolean == nil {
					errs <- fmt.Errorf("no answer to %q", q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentAnswerContextMixedDeadlines runs concurrent budgeted and
// unbudgeted AnswerContext calls, with deadlines tight enough that some
// expire mid-search, and proves no shared-state corruption: every
// unbudgeted call must still produce the reference answers computed
// serially, and every degraded call must report a known reason. Run under
// -race in CI via `go test -race ./...` (the tier-1 Makefile target).
func TestConcurrentAnswerContextMixedDeadlines(t *testing.T) {
	sys := benchmarkSystem(t)
	questions := []string{
		"Who is the mayor of Berlin?",
		"Which movies did Antonio Banderas star in?",
		"Who was married to an actor that played in Philadelphia?",
		"Is Berlin the capital of Germany?",
		"Give me all companies in Munich.",
	}
	// Reference answers, computed serially before any concurrency.
	reference := make(map[string][]string)
	for _, q := range questions {
		ans, err := sys.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		reference[q] = ans.Labels
	}
	timeouts := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 0}
	validReasons := map[string]bool{"": true, "deadline": true, "canceled": true}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range questions {
				timeout := timeouts[(w+i)%len(timeouts)]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				ans, err := sys.AnswerContext(ctx, q)
				cancel()
				if err != nil {
					fail(err)
					return
				}
				if !validReasons[ans.Degraded] {
					fail(fmt.Errorf("%q: unexpected degradation reason %q", q, ans.Degraded))
					return
				}
				if timeout == 0 {
					if ans.Degraded != "" {
						fail(fmt.Errorf("%q: unbudgeted call degraded: %q", q, ans.Degraded))
						return
					}
					want := reference[q]
					if len(ans.Labels) != len(want) {
						fail(fmt.Errorf("%q: labels %v, want %v", q, ans.Labels, want))
						return
					}
					for j := range want {
						if ans.Labels[j] != want[j] {
							fail(fmt.Errorf("%q: label %d = %q, want %q", q, j, ans.Labels[j], want[j]))
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSPARQL: the query path is read-only too.
func TestConcurrentSPARQL(t *testing.T) {
	sys := benchmarkSystem(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := sys.Query(`SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }`)
				if err != nil || len(res.Rows) != 3 {
					t.Errorf("concurrent query: %v / %d rows", err, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
}
