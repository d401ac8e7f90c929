package sparql_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/sparql"
	"gqa/internal/store"
)

// The parent's renderer, kept verbatim (methods turned into ref*
// functions) as the reference Query.String, which writes into one builder,
// is compared with: fmt.Sprintf and one string per term, pattern and
// filter.

func refTermString(t sparql.Term) string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return t.Const.String()
}

func refPatternString(p sparql.Pattern) string {
	return fmt.Sprintf("%s %s %s .", refTermString(p.S), refTermString(p.P), refTermString(p.O))
}

func refFilterString(f sparql.Filter) string {
	return fmt.Sprintf("FILTER(%s %s %s)", refTermString(f.Left), f.Op, refTermString(f.Right))
}

func refQueryString(q *sparql.Query) string {
	var b strings.Builder
	switch q.Kind {
	case sparql.KindAsk:
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
				b.WriteString("?" + v)
			}
		}
	}
	b.WriteString(" WHERE { ")
	for _, p := range q.Patterns {
		b.WriteString(refPatternString(p))
		b.WriteByte(' ')
	}
	for _, f := range q.Filters {
		b.WriteString(refFilterString(f))
		b.WriteByte(' ')
	}
	b.WriteString("}")
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				fmt.Fprintf(&b, " DESC(?%s)", k.Var)
			} else {
				fmt.Fprintf(&b, " ASC(?%s)", k.Var)
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String()
}

// sameRender reports how q's rendering differs from the reference's.
func sameRender(t *testing.T, what string, q *sparql.Query) {
	t.Helper()
	if got, want := q.String(), refQueryString(q); got != want {
		t.Fatalf("%s renders\n%s\nthe reference renders\n%s", what, got, want)
	}
}

// TestRenderMatchesReferenceOnTestQueries parses every string literal of
// this package's tests — the queries they parse and FuzzParseSPARQL's
// seeds among them — and compares the renderings of each that parses.
func TestRenderMatchesReferenceOnTestQueries(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", fset.Position(lit.Pos()), err)
			}
			if q, err := sparql.Parse(src); err == nil {
				sameRender(t, fset.Position(lit.Pos()).String(), q)
				parsed++
			}
			return true
		})
	}
	if parsed < 30 {
		t.Fatalf("only %d literals parsed as queries", parsed)
	}
	t.Logf("%d literals parsed as queries", parsed)
}

// TestRenderMatchesReferenceOnWorkloads compares the resolved SPARQL of
// every match of every question of the qald, yago, nl-scale and cinema
// workloads.
func TestRenderMatchesReferenceOnWorkloads(t *testing.T) {
	qald := func() (*store.Graph, *dict.Dictionary, []bench.Question, error) {
		g, err := bench.BuildKB()
		if err != nil {
			return nil, nil, nil, err
		}
		d, _, err := bench.BuildDictionary(g)
		return g, d, bench.Workload(), err
	}
	yago := func() (*store.Graph, *dict.Dictionary, []bench.Question, error) {
		g, err := bench.BuildYagoKB()
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := bench.BuildYagoDictionary(g)
		return g, d, bench.YagoWorkload(), err
	}
	nlscale := func() (*store.Graph, *dict.Dictionary, []bench.Question, error) {
		kb, err := bench.NewNLScaleKB(100, 9, 3)
		if err != nil {
			return nil, nil, nil, err
		}
		return kb.Graph, kb.Dict, kb.Questions, nil
	}
	cinema := func() (*store.Graph, *dict.Dictionary, []bench.Question, error) {
		kb := bench.NewCinemaKB()
		return kb.Graph, kb.Dict, kb.Questions, nil
	}
	rendered := 0
	for _, build := range []func() (*store.Graph, *dict.Dictionary, []bench.Question, error){qald, yago, nlscale, cinema} {
		g, d, qs, err := build()
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystem(g, d, core.Options{TopK: 10})
		for _, q := range qs {
			res, err := sys.Answer(q.Text)
			if err != nil {
				t.Fatalf("%q: %v", q.Text, err)
			}
			for i := range res.Matches.Len() {
				text, err := core.ResolvedSPARQL(g, res.Matches, i)
				if err != nil {
					continue
				}
				sq, err := sparql.Parse(text)
				if err != nil {
					t.Fatalf("%q match %d: %s does not parse: %v", q.Text, i, text, err)
				}
				if got := sq.String(); got != text {
					t.Fatalf("%q match %d: %s parses to %s", q.Text, i, text, got)
				}
				sameRender(t, fmt.Sprintf("%q match %d", q.Text, i), sq)
				rendered++
			}
		}
	}
	if rendered < 500 {
		t.Fatalf("only %d matches rendered", rendered)
	}
	t.Logf("%d matches rendered", rendered)
}
