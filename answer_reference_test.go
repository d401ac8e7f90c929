package gqa

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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
			out.SPARQL = sq
		}
	}
	return out
}

// refAppendTerms is the parent's appendTerms, kept verbatim (renamed) as
// the reference the one-pass appendTerms is compared with: it called Term
// three times an answer and copied every IRI into one string.
//
// appendTerms appends the terms ids name, in N-Triples syntax, to dst. The
// IRIs ("<" + IRI + ">") are rendered into one string and each is sliced
// out of it; any other term renders on its own (rdf.Term.String).
func refAppendTerms(dst []string, g *store.Graph, ids []store.ID) []string {
	size := 0
	for _, id := range ids {
		if t := g.Term(id); t.IsIRI() {
			size += len(t.Value()) + 2
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, id := range ids {
		if t := g.Term(id); t.IsIRI() {
			b.WriteByte('<')
			b.WriteString(t.Value())
			b.WriteByte('>')
		}
	}
	block, off := b.String(), 0
	for _, id := range ids {
		t := g.Term(id)
		if !t.IsIRI() {
			dst = append(dst, t.String())
			continue
		}
		n := len(t.Value()) + 2
		dst = append(dst, block[off:off+n])
		off += n
	}
	return dst
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
	// each workload's KB in ID order does.
	for _, w := range answerWorkloads(t) {
		ids := make([]store.ID, w.g.NumTerms())
		for i := range ids {
			ids[i] = store.ID(i)
		}
		want := refAppendTerms(nil, w.g, ids)
		for i, got := range appendTerms(nil, w.g, ids) {
			if got != want[i] || got != w.g.Term(ids[i]).String() {
				t.Fatalf("%s: term %d renders %q, the parent's %q, Term.String %q", w.name, i, got, want[i], w.g.Term(ids[i]).String())
			}
		}
	}
	t.Logf("%d answers, %d of them not IRIs; the most a question has is %d", answers, literals, largest)
}

// TestBuildAnswerAllocs bounds what building the answer of a question with
// a hundred answers allocates: four, for the answer, its Labels and IRIs
// and the resolved SPARQL of its best match. The labels and the IRIs are
// the term table's own strings, so a string per answer, or a rendered
// IRI, breaks the bound; so does building the query before rendering it
// (the parent's 4 + 14).
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
	const ceiling = 4
	allocs := testing.AllocsPerRun(100, func() { s.buildAnswer(res) })
	ref := testing.AllocsPerRun(100, func() { s.refBuildAnswer(res) })
	t.Logf("%d answers: %v allocations, the parent's %v", len(res.Answers), allocs, ref)
	if allocs > ceiling {
		t.Errorf("buildAnswer allocates %v times for %d answers, at most %d", allocs, len(res.Answers), ceiling)
	}
}

// TestCastOfQuestionAllocs bounds what a warm cast-of-director question
// costs through the facade on the cinema test KB, where its 32 matches tie
// in one score run: at most 7 KiB a question. Two parents ago, a path
// header copied per edge into every match and a map deduplicating the
// answers took 15.2 KB; the parent, which copied the answers' IRIs into
// one string and built the SPARQL query before rendering it, 10.7 KB;
// this change takes 5.9 KB.
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
	const runs, ceiling = 200, 7 << 10
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

// FuzzBuildAnswer: whatever the question, on the mini-DBpedia with the
// aggregation extension off and on, the answer buildAnswer builds equals
// the reference's byte for byte.
func FuzzBuildAnswer(f *testing.F) {
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		f.Fatal(err)
	}
	systems := [2]*System{NewSystem(g, d, Options{}), NewSystem(g, d, Options{EnableAggregation: true})}
	for i, q := range bench.Workload() {
		if i%9 == 0 {
			f.Add(q.Text, i%2 == 0)
		}
	}
	f.Add("How many films did Antonio Banderas star in?", true)
	f.Add("Who is the youngest player in the Premier League?", true)
	f.Fuzz(func(t *testing.T, question string, aggregate bool) {
		s := systems[0]
		if aggregate {
			s = systems[1]
		}
		res, err := s.core.Answer(question)
		if err != nil {
			return // a question the pipeline refuses has no answer to build
		}
		if got, want := s.buildAnswer(res), s.refBuildAnswer(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %q %q %q\nwant %q %q %q", question, got.Labels, got.IRIs, got.SPARQL, want.Labels, want.IRIs, want.SPARQL)
		}
		if got, want := appendTerms(nil, s.core.Graph, res.Answers), refAppendTerms(nil, s.core.Graph, res.Answers); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%q: IRIs %q, the parent's %q", question, got, want)
		}
	})
}
