package gqa

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/dict"
)

func benchmarkSystem(t testing.TB) *System { return cachedSystem(t, 0) }

// cachedSystem is the bundled KB behind an answer cache of that many
// entries (zero: none).
func cachedSystem(t testing.TB, entries int) *System {
	t.Helper()
	s, err := Open(Source{}, Options{Cache: CacheConfig{Entries: entries}})
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
	if ans.QueryGraph() == "" {
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

// savedKB writes the bundled KB as N-Triples and as a frozen snapshot, and
// its mined dictionary, into a temp dir, returning the three paths.
func savedKB(t *testing.T) (graph, frozen, dictionary string) {
	t.Helper()
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	save := func(name string, write func(w io.Writer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return save("kb.nt", func(w io.Writer) error { return SaveGraph(w, g) }),
		save("kb.frz", func(w io.Writer) error { return SaveFrozenSnapshot(w, g) }),
		save("dict.tsv", func(w io.Writer) error { return d.Encode(w, g) })
}

// TestLoadSystemRoundTrip: every cell of Open's matrix — (N-Triples |
// frozen snapshot | bundled KB) × (dictionary file | mined) — boots a
// system that answers like the bundled one, with the options it was given.
func TestLoadSystemRoundTrip(t *testing.T) {
	graph, frozen, dictionary := savedKB(t)
	for _, src := range []Source{
		{},
		{Dict: dictionary},
		{Graph: graph},
		{Graph: graph, Dict: dictionary},
		{Frozen: frozen},
		{Frozen: frozen, Dict: dictionary},
	} {
		s, err := Open(src, Options{EnableAggregation: true, Cache: CacheConfig{Entries: 4}})
		if err != nil {
			t.Fatalf("Open(%+v): %v", src, err)
		}
		ans, err := s.Answer("Who is the mayor of Berlin?")
		if err != nil {
			t.Fatal(err)
		}
		if !ans.OK || len(ans.Labels) != 1 || ans.Labels[0] != "Klaus Wowereit" {
			t.Errorf("Open(%+v): answer = %+v", src, ans)
		}
		if !s.core.Opts.EnableAggregation || s.cache == nil {
			t.Errorf("Open(%+v) dropped its options", src)
		}
	}
}

func TestLoadSystemErrors(t *testing.T) {
	graph, frozen, dictionary := savedKB(t)
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, src := range map[string]Source{
		"bad graph":               {Graph: write("bad.nt", "garbage"), Dict: dictionary},
		"bad dictionary":          {Graph: graph, Dict: write("bad.tsv", "bad dict line")},
		"N-Triples as a snapshot": {Frozen: graph, Dict: dictionary},
		"two graph sources":       {Graph: graph, Frozen: frozen},
		"no dictionary for a foreign graph": {Graph: write("foreign.nt",
			"<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n")},
	} {
		if _, err := Open(src, Options{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A snapshot of the previous format version is refused whole, by the
	// message that names both versions (bytes 8–12 are the version field).
	old, err := os.ReadFile(frozen)
	if err != nil {
		t.Fatal(err)
	}
	old[8] = 2
	if _, err := Open(Source{Frozen: write("v2.frz", string(old))}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "version 2 is not readable by this build (version 3)") {
		t.Errorf("Open(version 2 snapshot) = %v, want the version refusal", err)
	}
	// gqa-serve tells "no snapshot yet" from "snapshot rejected" by this.
	for _, src := range []Source{{Frozen: filepath.Join(dir, "absent.frz")}, {Graph: filepath.Join(dir, "absent.nt")}, {Dict: filepath.Join(dir, "absent.tsv")}} {
		if _, err := Open(src, Options{}); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Open(%+v) = %v, want an error wrapping fs.ErrNotExist", src, err)
		}
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

// TestExplainFailedAggregation: a superlative whose base question's answers
// have nothing to rank by fails as aggregation, and Explain shows no match
// behind an answer it does not give.
func TestExplainFailedAggregation(t *testing.T) {
	s, err := Open(Source{}, Options{EnableAggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	// Registered already; registering it again changes nothing.
	s.RegisterSuperlative("oldest", "http://dbpedia.org/ontology/age", true)
	ans, lines, err := s.Explain("Which is the oldest company in Munich?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Failure != "aggregation" || len(lines) != 0 {
		t.Fatalf("failure %q with explain lines %q; want the aggregation failure and none", ans.Failure, lines)
	}
}

// TestAnswerSPARQLEvaluatesToTheAnswer: Answer.SPARQL evaluates to the
// answer itself — its rows are the answer's terms, or its truth value the
// answer's boolean — on every workload question that has one, with the
// aggregation extension on. A count or a superlative has none: no query of
// the dialect yields "3", and an ORDER BY does not rank as the extension
// does.
func TestAnswerSPARQLEvaluatesToTheAnswer(t *testing.T) {
	s, err := Open(Source{}, Options{EnableAggregation: true})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, q := range bench.Workload() {
		ans, err := s.Answer(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		if ans.SPARQL == "" {
			continue
		}
		res, err := s.Query(ans.SPARQL)
		if err != nil {
			t.Fatalf("%s: resolved SPARQL does not evaluate: %v\n%s", q.ID, err, ans.SPARQL)
		}
		checked++
		if ans.Boolean != nil {
			if res.Boolean != *ans.Boolean {
				t.Errorf("%s: SPARQL answers %v, the answer %v\n%s", q.ID, res.Boolean, *ans.Boolean, ans.SPARQL)
			}
			continue
		}
		var rows []string
		for _, row := range res.Rows {
			rows = append(rows, row["answer"].String())
		}
		want := append([]string(nil), ans.IRIs...)
		sort.Strings(rows)
		sort.Strings(want)
		if !slices.Equal(rows, want) {
			t.Errorf("%s %q: SPARQL rows %q, answer %q\n%s", q.ID, q.Text, rows, ans.Labels, ans.SPARQL)
		}
	}
	if checked == 0 {
		t.Fatal("no workload answer carried SPARQL")
	}
}

// TestFrozenSystemRoundTrip: a system opened from a frozen snapshot arrives
// frozen at the generation the snapshot was saved at.
func TestFrozenSystemRoundTrip(t *testing.T) {
	_, frozen, dictionary := savedKB(t)
	s, err := Open(Source{Frozen: frozen, Dict: dictionary}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	if sn := g.Frozen(); sn == nil || sn.Generation() != g.Generation() || g.Generation() != bench.MustKB().Generation() {
		t.Fatalf("opened graph at generation %d is not frozen at the saved generation", g.Generation())
	}
	ans, err := s.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		t.Fatal(err)
	}
	if !ans.OK || ans.Labels[0] != "Melanie Griffith" {
		t.Fatalf("snapshot system answer: %+v", ans)
	}
}
