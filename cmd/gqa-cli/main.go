// Command gqa-cli is an interactive natural-language question answering
// shell over an RDF graph.
//
// Usage:
//
//	gqa-cli [-graph graph.nt | -frozen kb.frz] [-dict dict.tsv] [-explain] [-trace] [-cache N] [question ...]
//
// The flags name a gqa.Source and gqa.Open boots it. Without a graph
// source it runs over the bundled mini-DBpedia benchmark knowledge base.
// Questions given as arguments are answered and the program exits;
// otherwise a REPL starts. Lines starting with "sparql " are evaluated as
// SPARQL instead.
//
// -frozen loads a GQAFRZ1 frozen snapshot (gqa-gen frozen) straight into
// the query-ready CSR form — the fastest cold start. Without -dict the
// paraphrase dictionary is mined from the loaded graph with the bundled
// relation-phrase support sets, which fit the bundled KB and graphs that
// extend it; any other graph needs a dictionary from gqa-mine.
//
// -timeout bounds each question's wall-clock time; when it expires the
// engine returns the best partial answer found so far, flagged
// "degraded: deadline".
//
// -trace prints each question's span tree after the answer: per-stage
// timings, candidate counts, matcher rounds, and budget spent.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gqa"
)

func main() {
	graphPath := flag.String("graph", "", "N-Triples graph file (default: bundled mini-DBpedia)")
	frzPath := flag.String("frozen", "", "GQAFRZ1 frozen snapshot to load instead of -graph")
	dictPath := flag.String("dict", "", "paraphrase dictionary file (gqa-mine output)")
	explain := flag.Bool("explain", false, "show the top matches behind each answer")
	trace := flag.Bool("trace", false, "print each question's span tree (stage timings and counters)")
	aggregate := flag.Bool("aggregate", false, "enable the counting/superlative extension")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per question (0 = unlimited), e.g. 500ms")
	cacheSize := flag.Int("cache", 256, "answer-cache capacity in entries (0 = disabled); re-asking a question in the REPL hits the cache")
	flag.Parse()

	sys, err := gqa.Open(gqa.Source{Graph: *graphPath, Frozen: *frzPath, Dict: *dictPath},
		gqa.Options{EnableAggregation: *aggregate, Cache: gqa.CacheConfig{Entries: *cacheSize}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-cli:", err)
		os.Exit(1)
	}

	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			ask(sys, q, *explain, *trace, *timeout)
		}
		return
	}

	fmt.Println("gqa — natural language question answering over RDF")
	fmt.Println(`type a question, "sparql <query>", or "quit"`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("? ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == "quit" || line == "exit":
			return
		case strings.HasPrefix(line, "sparql "):
			runSPARQL(sys, strings.TrimPrefix(line, "sparql "), *timeout)
		default:
			ask(sys, line, *explain, *trace, *timeout)
		}
	}
}

func withBudget(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

func ask(sys *gqa.System, question string, explain, trace bool, timeout time.Duration) {
	ctx, cancel := withBudget(timeout)
	defer cancel()
	if explain {
		ans, lines, err := sys.ExplainContext(ctx, question)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		printAnswer(ans)
		for _, l := range lines {
			fmt.Println("   ", l)
		}
		printTrace(ans, trace)
		return
	}
	var (
		ans *gqa.Answer
		err error
	)
	if trace {
		ans, err = sys.AnswerTraced(ctx, question)
	} else {
		ans, err = sys.AnswerContext(ctx, question)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printAnswer(ans)
	printTrace(ans, trace)
}

func printTrace(ans *gqa.Answer, trace bool) {
	if !trace || ans.Trace == nil {
		return
	}
	fmt.Println(ans.Trace.Tree())
}

func printAnswer(ans *gqa.Answer) {
	note := ""
	if ans.Degraded != "" {
		note = "  [degraded: " + ans.Degraded + "]"
	}
	switch {
	case ans.Boolean != nil:
		fmt.Printf("→ %v  (%.1fms)%s\n", *ans.Boolean, ms(ans), note)
	case ans.OK:
		fmt.Printf("→ %s  (%.1fms)%s\n", strings.Join(ans.Labels, "; "), ms(ans), note)
	default:
		fmt.Printf("→ no answer (%s)%s\n", ans.Failure, note)
	}
}

func ms(ans *gqa.Answer) float64 { return float64(ans.Total.Microseconds()) / 1000 }

func runSPARQL(sys *gqa.System, query string, timeout time.Duration) {
	ctx, cancel := withBudget(timeout)
	defer cancel()
	res, err := sys.QueryContext(ctx, query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Truncated != "" {
		fmt.Printf("  [truncated: %s]\n", res.Truncated)
	}
	if len(res.Rows) == 0 {
		fmt.Printf("→ boolean: %v\n", res.Boolean)
		return
	}
	for _, row := range res.Rows {
		parts := make([]string, 0, len(res.Vars))
		for _, v := range res.Vars {
			parts = append(parts, "?"+v+"="+row[v].String())
		}
		fmt.Println("  ", strings.Join(parts, " "))
	}
}
