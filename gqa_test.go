package gqa

import (
	"bytes"
	"strings"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/dict"
)

func benchmarkSystem(t testing.TB) *System {
	t.Helper()
	s, err := BenchmarkSystem()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeRunningExample(t *testing.T) {
	s := benchmarkSystem(t)
	ans, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK || len(ans.Labels) == 0 || ans.Labels[0] != "Melanie Griffith" {
		t.Fatalf("answer = %+v", ans)
	}
	if ans.QueryGraph == "" {
		t.Error("query graph rendering missing")
	}
	if ans.Total <= 0 || ans.Understanding <= 0 {
		t.Error("timings missing")
	}
}

func TestFacadeBoolean(t *testing.T) {
	s := benchmarkSystem(t)
	ans, err := s.Answer("Is Berlin the capital of Germany?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Boolean == nil || !*ans.Boolean {
		t.Fatalf("boolean = %+v", ans)
	}
}

func TestFacadeFailureSurfaces(t *testing.T) {
	s := benchmarkSystem(t)
	ans, err := s.Answer("How many films did Antonio Banderas star in?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.OK || ans.Failure != "aggregation" {
		t.Fatalf("answer = %+v", ans)
	}
}

func TestFacadeSPARQL(t *testing.T) {
	s := benchmarkSystem(t)
	res, err := s.Query(`SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFacadeExplain(t *testing.T) {
	s := benchmarkSystem(t)
	ans, lines, err := s.Explain("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK || len(lines) == 0 {
		t.Fatalf("explain: ans=%+v lines=%v", ans, lines)
	}
	if !strings.Contains(lines[0], "Antonio Banderas") || !strings.Contains(lines[0], "spouse") {
		t.Errorf("top match rendering: %s", lines[0])
	}
}

func TestLoadSystemRoundTrip(t *testing.T) {
	// Serialize the benchmark KB + dictionary, reload through the public
	// entry point, and verify behaviour is preserved.
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	var graphBuf, dictBuf bytes.Buffer
	if err := SaveGraph(&graphBuf, g); err != nil {
		t.Fatal(err)
	}
	if err := d.Encode(&dictBuf, g); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSystem(&graphBuf, &dictBuf)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := s.Answer("Who is the mayor of Berlin?")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK || len(ans.Labels) != 1 || ans.Labels[0] != "Klaus Wowereit" {
		t.Fatalf("answer = %+v", ans)
	}
}

func TestLoadSystemErrors(t *testing.T) {
	if _, err := LoadSystem(strings.NewReader("garbage"), strings.NewReader("")); err == nil {
		t.Fatal("bad graph accepted")
	}
	if _, err := LoadSystem(strings.NewReader(""), strings.NewReader("bad dict line")); err == nil {
		t.Fatal("bad dictionary accepted")
	}
}

func TestMineDictionaryReplaces(t *testing.T) {
	s := benchmarkSystem(t)
	sets, err := bench.SupportSets(s.Graph())
	if err != nil {
		t.Fatal(err)
	}
	s.MineDictionary(sets[:5], 2, 3)
	if s.Dictionary().Len() > 5 {
		t.Fatalf("dictionary not replaced: %d phrases", s.Dictionary().Len())
	}
	var _ *dict.Dictionary = s.Dictionary()
}

func TestFacadeResolvedSPARQL(t *testing.T) {
	s := benchmarkSystem(t)
	ans, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.SPARQL == "" {
		t.Fatal("no resolved SPARQL")
	}
	// The exported query runs against the same graph and finds the answer.
	res, err := s.Query(ans.SPARQL)
	if err != nil {
		t.Fatalf("resolved SPARQL does not evaluate: %v\n%s", err, ans.SPARQL)
	}
	found := false
	for _, row := range res.Rows {
		if row["answer"].Label() == "Melanie Griffith" {
			found = true
		}
	}
	if !found {
		t.Fatalf("resolved SPARQL rows: %v\n%s", res.Rows, ans.SPARQL)
	}
}

func TestFrozenSystemRoundTrip(t *testing.T) {
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	var snapBuf, dictBuf bytes.Buffer
	if err := SaveFrozenSnapshot(&snapBuf, g); err != nil {
		t.Fatal(err)
	}
	if err := d.Encode(&dictBuf, g); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSystemFrozen(&snapBuf, &dictBuf)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK || ans.Labels[0] != "Melanie Griffith" {
		t.Fatalf("snapshot system answer: %+v", ans)
	}
}
