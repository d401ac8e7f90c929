package gqa

// One testing.B benchmark per table/figure of the paper's evaluation
// section, plus the design-choice ablations of DESIGN.md §5. The
// corresponding human-readable reports come from `go run ./cmd/gqa-bench`.

import (
	"io"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/deanna"
	"gqa/internal/dict"
	"gqa/internal/eval"
	"gqa/internal/nlp"
)

// BenchmarkLoadGraph (Table 4): building the mini-DBpedia store.
func BenchmarkLoadGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildKB(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveLoadRoundTrip (Table 4): N-Triples serialization path.
func BenchmarkSaveLoadRoundTrip(b *testing.B) {
	g := bench.MustKB()
	for i := 0; i < b.N; i++ {
		if err := SaveGraph(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMiningTheta (Tables 5/7): offline dictionary mining at a given θ
// over the wordnet-like synthetic phrase dataset.
func benchMiningTheta(b *testing.B, theta int) {
	sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 2, Entities: 2000})
	ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{Seed: 2, Phrases: 100, Support: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: theta, TopK: 3})
	}
}

func BenchmarkOfflineMiningTheta2(b *testing.B) { benchMiningTheta(b, 2) }
func BenchmarkOfflineMiningTheta4(b *testing.B) { benchMiningTheta(b, 4) }

// BenchmarkDictionaryPrecision (Exp 1): mining + P@3 evaluation.
func BenchmarkDictionaryPrecision(b *testing.B) {
	sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 11, Entities: 300, Predicates: 5, AvgDegree: 8})
	ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{
		Seed: 11, Phrases: 40, Support: 12, MaxGoldLen: 4, GoldFraction: 0.6,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
		bench.PrecisionAtK(d, ps, 3)
	}
}

// BenchmarkEndToEnd (Table 8): the full 99-question workload through the
// graph data-driven engine.
func BenchmarkEndToEnd(b *testing.B) {
	ours, _, _, err := eval.BuildSystems()
	if err != nil {
		b.Fatal(err)
	}
	qs := bench.Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunOurs(ours, qs)
	}
}

// BenchmarkEndToEndDeanna (Table 8): the same workload through the
// baseline.
func BenchmarkEndToEndDeanna(b *testing.B) {
	_, base, _, err := eval.BuildSystems()
	if err != nil {
		b.Fatal(err)
	}
	qs := bench.Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunDeanna(base, qs)
	}
}

// BenchmarkQuestionUnderstanding (Figure 6, ours): parsing + relation
// extraction + query-graph construction for the running example.
func BenchmarkQuestionUnderstanding(b *testing.B) {
	sys, err := Open(Source{}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const q = "Who was married to an actor that played in Philadelphia?"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAmbiguity (Figure 6 part b): both engines on the double-ambiguity
// question at distractor density m.
func benchAmbiguity(b *testing.B, m int, useDeanna bool) {
	g, err := bench.AmbiguousKB(m)
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	const q = "Did Antonio Banderas play in Philadelphia?"
	b.ResetTimer()
	if useDeanna {
		sys := deanna.NewSystem(g, d, deanna.Options{MaxEntityCandidates: m + 10})
		for i := 0; i < b.N; i++ {
			if _, err := sys.Answer(q); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	sys := core.NewSystem(g, d, core.Options{TopK: 10, MaxVertexCandidates: m + 10})
	for i := 0; i < b.N; i++ {
		if _, err := sys.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmbiguity50Ours(b *testing.B)    { benchAmbiguity(b, 50, false) }
func BenchmarkAmbiguity50Deanna(b *testing.B)  { benchAmbiguity(b, 50, true) }
func BenchmarkAmbiguity200Ours(b *testing.B)   { benchAmbiguity(b, 200, false) }
func BenchmarkAmbiguity200Deanna(b *testing.B) { benchAmbiguity(b, 200, true) }

// qaldTrees returns the mini-DBpedia's dictionary and the dependency trees
// of the 99 workload questions.
func qaldTrees(b *testing.B) (*dict.Dictionary, []*nlp.DepTree) {
	d, _, err := bench.BuildDictionary(bench.MustKB())
	if err != nil {
		b.Fatal(err)
	}
	qs := bench.Workload()
	trees := make([]*nlp.DepTree, 0, len(qs))
	for _, q := range qs {
		if y, err := nlp.Parse(q.Text); err == nil {
			trees = append(trees, y)
		}
	}
	return d, trees
}

// BenchmarkFindEmbeddings (§4.1.1): Algorithm 2 alone over the 99 trees,
// one pass per op.
func BenchmarkFindEmbeddings(b *testing.B) {
	d, trees := qaldTrees(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, y := range trees {
			core.FindEmbeddings(y, d)
		}
	}
}

// BenchmarkHeuristicRules (Table 9): extraction with and without the four
// argument rules.
func BenchmarkHeuristicRules(b *testing.B) {
	d, trees := qaldTrees(b)
	b.Run("with-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, y := range trees {
				core.ExtractRelations(y, d, core.ExtractOptions{})
			}
		}
	})
	b.Run("without-rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, y := range trees {
				core.ExtractRelations(y, d, core.ExtractOptions{DisableHeuristicRules: true})
			}
		}
	})
}

// BenchmarkUnderstandingScaling (Tables 3/12): dependency parsing +
// extraction as the question grows — the polynomial stage.
func BenchmarkUnderstandingScaling(b *testing.B) {
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, reps := range []int{0, 2, 4} {
		q := "Who was married to an actor"
		for i := 0; i < reps; i++ {
			q += " that played in a film that was directed by a person"
		}
		q += "?"
		b.Run(nameWords(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				y, err := nlp.Parse(q)
				if err != nil {
					b.Fatal(err)
				}
				core.ExtractRelations(y, d, core.ExtractOptions{})
			}
		})
	}
}

func nameWords(q string) string {
	n := len(nlp.Tokenize(q))
	return "words-" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// ------------------------------- ablations (DESIGN.md §5) ----------------

// BenchmarkTopKTAvsExhaustive: Algorithm 3's early-termination rule.
func BenchmarkTopKTAvsExhaustive(b *testing.B) {
	g, err := bench.AmbiguousKB(100)
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	const q = "Did Antonio Banderas play in Philadelphia?"
	for _, ex := range []bool{false, true} {
		name := "TA"
		if ex {
			name = "exhaustive"
		}
		sys := core.NewSystem(g, d, core.Options{TopK: 10, MaxVertexCandidates: 110, Exhaustive: ex})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Answer(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNeighborhoodPruning: the §4.2.2 candidate filter.
func BenchmarkNeighborhoodPruning(b *testing.B) {
	g, err := bench.AmbiguousKB(100)
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	const q = "Who was married to an actor that played in Philadelphia?"
	for _, disable := range []bool{false, true} {
		name := "pruning-on"
		if disable {
			name = "pruning-off"
		}
		sys := core.NewSystem(g, d, core.Options{TopK: 10, MaxVertexCandidates: 110, DisablePruning: disable})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Answer(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPathsVsSinglePredicate: the predicate-path contribution — a
// path question through the full engine vs the single-predicate baseline
// (which must fail it).
func BenchmarkPathsVsSinglePredicate(b *testing.B) {
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	const q = "Who is the uncle of John F. Kennedy Jr.?"
	b.Run("with-paths", func(b *testing.B) {
		sys := core.NewSystem(g, d, core.Options{TopK: 10})
		for i := 0; i < b.N; i++ {
			res, err := sys.Answer(q)
			if err != nil || len(res.Answers) == 0 {
				b.Fatal("path question must be answered", err)
			}
		}
	})
	b.Run("single-predicate", func(b *testing.B) {
		sys := deanna.NewSystem(g, d, deanna.Options{})
		for i := 0; i < b.N; i++ {
			res, err := sys.Answer(q)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Failed {
				b.Fatal("single-predicate baseline unexpectedly answered a path question")
			}
		}
	})
}

// BenchmarkBidirectionalBFS: the miner's meet-in-the-middle search vs the
// reference DFS.
func BenchmarkBidirectionalBFS(b *testing.B) {
	sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 2, Entities: 2000})
	ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{Seed: 2, Phrases: 60, Support: 8})
	for _, uni := range []bool{false, true} {
		name := "bidirectional"
		if uni {
			name = "unidirectional"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3, Unidirectional: uni})
			}
		})
	}
}

// BenchmarkYagoEndToEnd (the omitted YAGO2 evaluation): the full pipeline
// over the second repository.
func BenchmarkYagoEndToEnd(b *testing.B) {
	g, err := bench.BuildYagoKB()
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildYagoDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(g, d, core.Options{TopK: 10})
	qs := bench.YagoWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.RunOurs(sys, qs)
	}
}

// BenchmarkDictionaryMaintenance: incremental re-mine vs full re-mine
// after a predicate introduction (§3 maintenance).
func BenchmarkDictionaryMaintenance(b *testing.B) {
	g := bench.MustKB()
	sets, err := bench.SupportSets(g)
	if err != nil {
		b.Fatal(err)
	}
	spouse, _ := g.LookupIRI("http://dbpedia.org/ontology/spouse")
	b.Run("incremental", func(b *testing.B) {
		m := dict.NewMaintainer(g, sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredicateAdded(spouse)
		}
	})
	b.Run("full-remine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dict.Mine(g, sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
		}
	})
}

// BenchmarkAggregationExtension: what the count operator costs a counting
// question over its base question — one scan for the operator and the
// base question's words parsed in the same stage.
func BenchmarkAggregationExtension(b *testing.B) {
	g := bench.MustKB()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(g, d, core.Options{TopK: 10, EnableAggregation: true})
	bench.RegisterSuperlatives(sys, g)
	b.Run("counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Answer("How many films did Antonio Banderas star in?"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Answer("Which films did Antonio Banderas star in?"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
