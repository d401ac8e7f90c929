package core

import (
	"reflect"
	"strings"
	"testing"

	"gqa/internal/linker"
	"gqa/internal/nlp"
)

func buildQS(t *testing.T, q string) (*System, *QueryGraph) {
	t.Helper()
	s, ids := figure1System(t, Options{})
	_ = ids
	y := mustParse(t, q)
	rels := ExtractRelations(y, s.Dict, ExtractOptions{})
	qg := BuildQueryGraph(y, rels, linker.New(s.Graph, linker.Options{}), BuildOptions{})
	return s, qg
}

func TestQueryGraphCorefSharesVertex(t *testing.T) {
	_, qg := buildQS(t, "Who was married to an actor that played in Philadelphia?")
	if len(qg.Vertices) != 3 {
		t.Fatalf("vertices = %d (%s)", len(qg.Vertices), qg)
	}
	// The shared vertex carries the content text "actor", not "that".
	found := false
	for _, v := range qg.Vertices {
		if v.Arg.Text == "actor" {
			found = true
		}
		if v.Arg.Text == "that" {
			t.Fatalf("pronoun survived coref: %s", qg)
		}
	}
	if !found {
		t.Fatalf("no actor vertex: %s", qg)
	}
}

func TestQueryGraphSelectMarking(t *testing.T) {
	cases := []struct {
		q          string
		wantSelect bool
	}{
		{"Who was married to Antonio Banderas?", true},
		{"Which movies did Antonio Banderas star in?", true},
		{"Give me all movies directed by Jonathan Demme.", true},
		{"Was Melanie Griffith married to Antonio Banderas?", false}, // boolean
	}
	for _, c := range cases {
		_, qg := buildQS(t, c.q)
		if got := qg.SelectVertex() >= 0; got != c.wantSelect {
			t.Errorf("%q: select=%v, want %v (%s)", c.q, got, c.wantSelect, qg)
		}
	}
}

func TestQueryGraphWhUnconstrained(t *testing.T) {
	_, qg := buildQS(t, "Who was married to Antonio Banderas?")
	sel := qg.SelectVertex()
	if sel < 0 || !qg.Vertices[sel].Unconstrained {
		t.Fatalf("wh vertex should be unconstrained: %s", qg)
	}
}

func TestQueryGraphWhDeterminedClass(t *testing.T) {
	_, qg := buildQS(t, "Which movies did Antonio Banderas star in?")
	sel := qg.SelectVertex()
	if sel < 0 {
		t.Fatalf("no select vertex: %s", qg)
	}
	v := qg.Vertices[sel]
	if v.Unconstrained {
		t.Fatalf("wh-determined NP should be class-constrained: %s", qg)
	}
	hasClass := false
	for _, c := range v.Candidates {
		if c.IsClass {
			hasClass = true
		}
	}
	if !hasClass {
		t.Fatalf("no class candidate for 'movies': %s", qg)
	}
}

func TestQueryGraphUnknownCommonNounDegrades(t *testing.T) {
	s, ids := figure1System(t, Options{})
	_ = ids
	d := s.Dict
	y := mustParse(t, "Which frobnicators did Antonio Banderas star in?")
	rels := ExtractRelations(y, d, ExtractOptions{})
	if len(rels) == 0 {
		t.Skip("no relation extracted for synthetic noun")
	}
	qg := BuildQueryGraph(y, rels, linker.New(s.Graph, linker.Options{}), BuildOptions{})
	for _, v := range qg.Vertices {
		if strings.Contains(v.Arg.Text, "frobnicator") && !v.Unconstrained {
			t.Fatalf("unlinkable wh-NP should degrade to unconstrained: %s", qg)
		}
	}
}

func TestQueryGraphProperNounStaysConstrained(t *testing.T) {
	_, qg := buildQS(t, "Who was married to Zanzibar Quux?")
	// Unlinkable *proper* mention must stay constrained (and empty) so the
	// entity-linking failure is detected, not silently matched.
	for _, v := range qg.Vertices {
		if strings.Contains(v.Arg.Text, "Zanzibar") {
			if v.Unconstrained || len(v.Candidates) != 0 {
				t.Fatalf("proper mention degraded: %s", qg)
			}
			return
		}
	}
	t.Fatalf("Zanzibar vertex missing: %s", qg)
}

func TestQueryGraphStringRendering(t *testing.T) {
	_, qg := buildQS(t, "Who was married to an actor that played in Philadelphia?")
	s := qg.String()
	for _, want := range []string{"v0", "be married to", "play in"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
}

// TestAggregationReducesToTheBaseQuestion: the one scan finds the operator
// and the base question's words, and parsing those words gives the tree the
// base question's text parses to — the string the extension used to rebuild
// and parse again, shown as want.
func TestAggregationReducesToTheBaseQuestion(t *testing.T) {
	s, ids := figure1System(t, Options{EnableAggregation: true})
	for _, adj := range []string{"youngest", "highest", "oldest", "tallest"} {
		s.RegisterSuperlative(adj, ids["spouse"], adj != "youngest")
	}
	for _, c := range []struct {
		question, want string
		count          bool
	}{
		{"How many films did Antonio Banderas star in?", "Which films did Antonio Banderas star in?", true},
		{"How many children did Margaret Thatcher have?", "Give me the children of Margaret Thatcher.", true},
		{"How many members does the Prodigy have?", "Give me the members of the Prodigy.", true},
		{"How many children did J.F. Kennedy have?", "Give me the children of J.F. Kennedy.", true},
		{"How many children did Obama's wife have?", "Give me the children of Obama 's wife.", true},
		{"How much money did the U.S. spend?", "Which money did the U.S. spend?", true},
		{"Who is the youngest player in the Premier League?", "Who is the player in the Premier League?", false},
		{"What is the highest mountain in the world?", "What is the mountain in the world?", false},
		{"Which is the oldest company in Munich?", "Which is the company in Munich?", false},
		{"Who is the tallest basketball player?", "Who is the basketball player?", false},
	} {
		agg, op := s.aggregation(mustParse(t, c.question))
		if !agg || op == nil || op.count != c.count {
			t.Errorf("%q: aggregation = %v, %+v; want a count = %v operator", c.question, agg, op, c.count)
			continue
		}
		var words []string
		for _, tok := range op.base {
			words = append(words, tok.Text)
		}
		if got := strings.Join(words, " "); got != c.want[:len(c.want)-1] {
			t.Errorf("%q reduces to %q, want %q", c.question, got, c.want)
		}
		got, err := nlp.ParseTokens(op.base)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustParse(t, c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: the base question's words parse to\n%v\nwant\n%v", c.question, got, want)
		}
	}
	if agg, op := s.aggregation(mustParse(t, "What is the longest river in Germany?")); !agg || op != nil {
		t.Errorf("unregistered superlative: aggregation = %v, %+v; want an aggregation with no operator", agg, op)
	}
	if agg, _ := s.aggregation(mustParse(t, "Who was married to Antonio Banderas?")); agg {
		t.Error("a question with no count and no superlative read as an aggregation")
	}
}
