// Command gqa-bench regenerates every table and figure of the paper's
// evaluation section (§6) over the reproduction's datasets, plus the
// ablation studies called out in DESIGN.md.
//
// Usage:
//
//	gqa-bench -exp table4|table5|table6|table7|exp1|table8|fig6|table9|table10|table11|table12
//	gqa-bench -exp ablations     # TA stopping, pruning, paths, BFS
//	gqa-bench -exp shard -json BENCH_shard.json   # sharded scatter-gather matching
//	gqa-bench -exp all
//
// Absolute numbers differ from the paper (the substrate is an in-process
// store over a mini knowledge base, not gStore over full DBpedia); the
// shapes — who wins, by what factor, where quality degrades — are the
// reproduction targets. See EXPERIMENTS.md for the recorded comparison.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"gqa"
	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/deanna"
	"gqa/internal/dict"
	"gqa/internal/eval"
	"gqa/internal/nlp"
	"gqa/internal/obs"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

var jsonPath = flag.String("json", "", "write the experiment's comparison table as JSON to this path (e.g. BENCH_parallel.json, BENCH_shard.json)")

func main() {
	exp := flag.String("exp", "all", "experiment id (table4..table12, exp1, fig6, ablations, parallel, all)")
	flag.Parse()

	experiments := []struct {
		id  string
		fn  func()
		doc string
	}{
		{"table4", table4, "RDF graph statistics"},
		{"table5", table5, "relation-phrase dataset statistics"},
		{"table6", table6, "sample paraphrase-dictionary entries"},
		{"table7", table7, "offline mining time, θ=2 vs θ=4"},
		{"exp1", exp1, "dictionary precision P@3 vs gold path length"},
		{"table8", table8, "QALD-style end-to-end evaluation, ours vs DEANNA"},
		{"fig6", fig6, "online running-time comparison"},
		{"table9", table9, "heuristic-rule ablation"},
		{"table10", table10, "failure analysis"},
		{"table11", table11, "response time of correctly answered questions"},
		{"table12", table12, "complexity validation (understanding-stage scaling)"},
		{"ablations", ablations, "design-choice ablations"},
		{"parallel", parallelExp, "seq-vs-par top-k matcher speedup"},
		{"shard", shardExp, "sharded scatter-gather matching: K sweep, identity, incremental re-freeze"},
		{"shardrpc", shardrpcExp, "multi-process sharding: in-process K=4 vs RPC over loopback shard servers"},
		{"coldstart", coldstartExp, "boot-time comparison: N-Triples parse vs GQAFRZ1 load"},
		{"cache", cacheExp, "answer cache: cold vs warm vs coalesced latency"},
		{"serve", serveExp, "overload sweep: admission control, shedding, latency curve over a live listener"},
		{"obs", obsExp, "flight-recorder overhead: wide events + tail sampling, on vs off"},
		{"aggext", aggext, "aggregation extension (future work): Table 8/10 deltas"},
		{"yago2", yago2, "the omitted YAGO2 evaluation (§6: reported for DBpedia only)"},
	}

	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.id {
			fmt.Printf("━━━ %s — %s ━━━\n", e.id, e.doc)
			e.fn()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "gqa-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-bench:", err)
		os.Exit(1)
	}
	return v
}

func systems() (*core.System, *deanna.System, *store.Graph) {
	ours, base, g, err := eval.BuildSystems()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-bench:", err)
		os.Exit(1)
	}
	return ours, base, g
}

// ------------------------------------------------------------------ table 4

func table4() {
	g := must(bench.BuildKB())
	st := g.Stats()
	fmt.Println("dataset              entities  classes  literals  triples  predicates")
	fmt.Printf("%-20s %8d %8d %9d %8d %11d\n", "mini-DBpedia", st.Entities, st.Classes, st.Literals, st.Triples, st.Predicates)
	for _, n := range []int{1000, 10000, 50000} {
		sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 1, Entities: n})
		st := sg.Graph.Stats()
		fmt.Printf("%-20s %8d %8d %9d %8d %11d\n",
			fmt.Sprintf("synthetic-%dk", n/1000), st.Entities, st.Classes, st.Literals, st.Triples, st.Predicates)
	}
}

// ------------------------------------------------------------------ table 5

func table5() {
	fmt.Println("dataset             phrases  entity pairs  avg pairs/phrase")
	// The curated dataset over the mini KB.
	g := must(bench.BuildKB())
	sets := must(bench.SupportSets(g))
	pairs := 0
	for _, s := range sets {
		pairs += len(s.Pairs)
	}
	fmt.Printf("%-18s %8d %13d %17.1f\n", "curated-mini", len(sets), pairs, float64(pairs)/float64(len(sets)))
	// Two synthetic datasets standing in for wordnet-wikipedia (small) and
	// freebase-wikipedia (large).
	for _, cfg := range []struct {
		name              string
		entities, phrases int
	}{
		{"wordnet-like", 5000, 300},
		{"freebase-like", 20000, 1500},
	} {
		sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 2, Entities: cfg.entities})
		ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{Seed: 2, Phrases: cfg.phrases, Support: 10})
		pairs := 0
		for _, s := range ps.Sets {
			pairs += len(s.Pairs)
		}
		fmt.Printf("%-18s %8d %13d %17.1f\n", cfg.name, len(ps.Sets), pairs, float64(pairs)/float64(len(ps.Sets)))
	}
}

// ------------------------------------------------------------------ table 6

func table6() {
	g := must(bench.BuildKB())
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("relation phrase            predicate / predicate path                 confidence")
	for _, phrase := range []string{
		"be married to", "be born in", "be the mayor of", "be located in",
		"be fed by", "flow through", "uncle of",
	} {
		p, ok := d.Lookup(phrase)
		if !ok {
			continue
		}
		for i, e := range p.Entries {
			name := phrase
			if i > 0 {
				name = ""
			}
			fmt.Printf("%-26q %-42s %10.2f\n", name, e.Path.Render(g), e.Score)
		}
	}
}

// ------------------------------------------------------------------ table 7

func table7() {
	fmt.Println("phrase dataset       θ=2          θ=4          ratio")
	for _, cfg := range []struct {
		name              string
		entities, phrases int
	}{
		{"wordnet-like", 5000, 300},
		{"freebase-like", 20000, 1500},
	} {
		sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 2, Entities: cfg.entities})
		ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{Seed: 2, Phrases: cfg.phrases, Support: 10})
		times := map[int]time.Duration{}
		for _, theta := range []int{2, 4} {
			start := time.Now()
			dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: theta, TopK: 3})
			times[theta] = time.Since(start)
		}
		fmt.Printf("%-18s %-12s %-12s %5.1f×\n", cfg.name, times[2].Round(time.Millisecond),
			times[4].Round(time.Millisecond), float64(times[4])/float64(times[2]))
	}
}

// -------------------------------------------------------------------- exp 1

func exp1() {
	fmt.Println("per-hop extraction quality p, P@3 of mined dictionary by gold path length")
	fmt.Println("p      len-1  len-2  len-3  len-4")
	for _, gf := range []float64{1.0, 0.8, 0.6, 0.5} {
		sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 11, Entities: 300, Predicates: 5, AvgDegree: 8})
		ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{
			Seed: 11, Phrases: 40, Support: 12, MaxGoldLen: 4, GoldFraction: gf,
		})
		d, _ := dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3})
		p := bench.PrecisionAtK(d, ps, 3)
		fmt.Printf("%.2f   %.2f   %.2f   %.2f   %.2f\n", gf, p[1], p[2], p[3], p[4])
	}
}

// ------------------------------------------------------------------ table 8

func table8() {
	ours, base, _ := systems()
	qs := bench.Workload()
	resOurs := eval.RunOurs(ours, qs)
	resBase := eval.RunDeanna(base, qs)
	sumO := eval.Summarize(resOurs)
	sumB := eval.Summarize(resBase)
	fmt.Println("system       processed  right  partial  recall  precision  F-1")
	row := func(name string, s eval.Summary) {
		fmt.Printf("%-12s %9d %6d %8d %7.2f %10.2f %5.2f\n",
			name, s.Processed, s.Right, s.Partial, s.Recall, s.Precision, s.F1)
	}
	row("ours", sumO)
	row("DEANNA", sumB)
}

// -------------------------------------------------------------------- fig 6

func fig6() {
	ours, base, _ := systems()
	qs := bench.Workload()
	resOurs := eval.RunOurs(ours, qs)
	resBase := eval.RunDeanna(base, qs)
	// Questions both systems answered correctly, as in the paper.
	fmt.Println("question  ours-understand  ours-total  deanna-understand  deanna-total  speedup")
	var totalRatio, n float64
	for i := range resOurs {
		if resOurs[i].Outcome != eval.OutcomeRight || resBase[i].Outcome != eval.OutcomeRight {
			continue
		}
		o, b := resOurs[i], resBase[i]
		ratio := float64(b.Total) / float64(o.Total)
		totalRatio += ratio
		n++
		fmt.Printf("%-9s %15s %11s %18s %13s %7.1f×\n",
			o.Question.ID, o.Understanding.Round(time.Microsecond), o.Total.Round(time.Microsecond),
			b.Understanding.Round(time.Microsecond), b.Total.Round(time.Microsecond), ratio)
	}
	if n > 0 {
		fmt.Printf("mean speedup over %d shared questions: %.1f×\n", int(n), totalRatio/n)
	}

	// Part (b): the paper's 2–68× separation comes from DBpedia-scale
	// ambiguity. Sweep the number of "Philadelphia" candidates on the
	// running example: DEANNA's disambiguation graph grows quadratically
	// in candidates and its ILP exponentially in phrases, while the
	// data-driven evaluation stays anchored in the graph.
	fmt.Println()
	fmt.Println("ambiguity scaling (two ambiguous mentions, m distractors each:")
	fmt.Println(`"Did Antonio Banderas play in Philadelphia?")`)
	fmt.Println("m     candidates  ours-total  deanna-total  deanna-coherence-evals  speedup")
	const question = "Did Antonio Banderas play in Philadelphia?"
	for _, m := range []int{0, 10, 25, 50, 100, 200} {
		g := must(bench.AmbiguousKB(m))
		d, _, err := bench.BuildDictionary(g)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		oursSys := core.NewSystem(g, d, core.Options{TopK: 10, MaxVertexCandidates: m + 10})
		baseSys := deanna.NewSystem(g, d, deanna.Options{MaxEntityCandidates: m + 10})
		// Warm up, then take the best of 3.
		var oursT, baseT time.Duration
		var cohEvals int
		for i := 0; i < 3; i++ {
			ro := must(oursSys.Answer(question))
			rb := must(baseSys.Answer(question))
			if oursT == 0 || ro.Timing.Total < oursT {
				oursT = ro.Timing.Total
			}
			if baseT == 0 || rb.Timing.Total < baseT {
				baseT = rb.Timing.Total
			}
			cohEvals = rb.CoherenceEvals
		}
		fmt.Printf("%-5d %10d %11s %13s %23d %7.1f×\n",
			m, m+3, oursT.Round(time.Microsecond), baseT.Round(time.Microsecond),
			cohEvals, float64(baseT)/float64(oursT))
	}
}

// ------------------------------------------------------------------ table 9

func table9() {
	g := must(bench.BuildKB())
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	qs := bench.Workload()
	fmt.Println("condition           args-found  answered-right")
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"without the rules", true},
		{"with the rules", false},
	} {
		sys := core.NewSystem(g, d, core.Options{TopK: 10, DisableHeuristicRules: cfg.disable})
		argsFound := 0
		for _, q := range qs {
			y, err := nlp.Parse(q.Text)
			if err != nil {
				continue
			}
			rels := core.ExtractRelations(y, d, core.ExtractOptions{DisableHeuristicRules: cfg.disable})
			if len(rels) > 0 {
				argsFound++
			}
		}
		sum := eval.Summarize(eval.RunOurs(sys, qs))
		fmt.Printf("%-19s %10d %15d\n", cfg.name, argsFound, sum.Right)
	}
}

// ----------------------------------------------------------------- table 10

func table10() {
	ours, _, _ := systems()
	results := eval.RunOurs(ours, bench.Workload())
	fb := eval.FailureBreakdown(results)
	total := 0
	for _, n := range fb {
		total += n
	}
	fmt.Println("reason                    #     ratio")
	type rowT struct {
		k core.FailureKind
		n int
	}
	var rows []rowT
	for k, n := range fb {
		rows = append(rows, rowT{k, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	for _, r := range rows {
		fmt.Printf("%-24s %3d %8.0f%%\n", r.k, r.n, 100*float64(r.n)/float64(total))
	}
}

// ----------------------------------------------------------------- table 11

func table11() {
	ours, _, _ := systems()
	results := eval.RunOurs(ours, bench.Workload())
	correct := eval.CorrectlyAnswered(results)
	fmt.Printf("%d questions answered correctly\n", len(correct))
	fmt.Println("id     response time")
	for _, r := range correct {
		fmt.Printf("%-6s %s\n", r.Question.ID, r.Total.Round(time.Microsecond))
	}
}

// ----------------------------------------------------------------- table 12

func table12() {
	// Understanding-stage scaling: parse+extract+build Q^S time as the
	// question grows — the polynomial (O(|Y|³)) stage that replaces
	// DEANNA's exponential ILP.
	ours, _, _ := systems()
	base := "Who was married to an actor"
	ext := " that played in a film that was directed by a person"
	fmt.Println("|question words|  understanding time")
	for reps := 0; reps <= 4; reps++ {
		q := base
		for i := 0; i < reps; i++ {
			q += ext
		}
		q += "?"
		words := len(nlp.Tokenize(q))
		// Median of several runs.
		var best time.Duration
		for i := 0; i < 5; i++ {
			res, err := ours.Answer(q)
			if err != nil {
				continue
			}
			if best == 0 || res.Timing.Understanding < best {
				best = res.Timing.Understanding
			}
		}
		fmt.Printf("%16d  %s\n", words, best.Round(time.Microsecond))
	}
}

// ----------------------------------------------------------------- aggext

func aggext() {
	g := must(bench.BuildKB())
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	qs := bench.Workload()
	fmt.Println("condition               right  aggregation-failures")
	for _, enabled := range []bool{false, true} {
		sys := core.NewSystem(g, d, core.Options{TopK: 10, EnableAggregation: enabled})
		if enabled {
			bench.RegisterSuperlatives(sys, g)
		}
		results := eval.RunOurs(sys, qs)
		sum := eval.Summarize(results)
		fb := eval.FailureBreakdown(results)
		name := "paper (no aggregation)"
		if enabled {
			name = "with extension"
		}
		fmt.Printf("%-23s %5d %21d\n", name, sum.Right, fb[core.FailureAggregation])
	}
}

// ------------------------------------------------------------------- yago2

func yago2() {
	g := must(bench.BuildYagoKB())
	d := must(bench.BuildYagoDictionary(g))
	sys := core.NewSystem(g, d, core.Options{TopK: 10})
	results := eval.RunOurs(sys, bench.YagoWorkload())
	sum := eval.Summarize(results)
	st := g.Stats()
	fmt.Printf("YAGO2-style repository: %d entities, %d triples, %d predicates\n",
		st.Entities, st.Triples, st.Predicates)
	fmt.Println("system       processed  right  partial  recall  precision  F-1")
	fmt.Printf("%-12s %9d %6d %8d %7.2f %10.2f %5.2f\n",
		"ours", sum.Processed, sum.Right, sum.Partial, sum.Recall, sum.Precision, sum.F1)
	for _, r := range results {
		mark := "✔"
		if r.Outcome != eval.OutcomeRight {
			mark = "✘"
		}
		fmt.Printf("  %s %-4s %s\n", mark, r.Question.ID, r.Question.Text)
	}
}

// ----------------------------------------------------------------- parallel

// matcherWorkload builds the synthetic matching workload shared by the
// parallel and store experiments: one class anchor with nInst instances
// (each a seed task), every instance exploring ~fanout² two-step routes
// that collapse onto a small leaf set — heavy traversal per seed,
// bounded match count.
func matcherWorkload(nInst, fanout int) (*store.Graph, *core.QueryGraph) {
	g := store.New()
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	class := g.Intern(rdf.Ontology("Thing"))
	p1 := g.Intern(rdf.Ontology("p1"))
	p2 := g.Intern(rdf.Ontology("p2"))
	nMid, nLeaf := 200, 10
	mids := make([]store.ID, nMid)
	for i := range mids {
		mids[i] = g.Intern(rdf.Resource(fmt.Sprintf("m%d", i)))
	}
	leaves := make([]store.ID, nLeaf)
	for i := range leaves {
		leaves[i] = g.Intern(rdf.Resource(fmt.Sprintf("l%d", i)))
	}
	for j := 0; j < nMid; j++ {
		for k := 0; k < fanout; k++ {
			g.AddSPO(mids[j], p2, leaves[(j*7+k)%nLeaf])
		}
	}
	for i := 0; i < nInst; i++ {
		inst := g.Intern(rdf.Resource(fmt.Sprintf("i%d", i)))
		g.AddSPO(inst, typ, class)
		for k := 0; k < fanout; k++ {
			g.AddSPO(inst, p1, mids[(i*13+k*3)%nMid])
		}
	}
	path := dict.Path{{Pred: p1, Forward: true}, {Pred: p2, Forward: true}}
	phrase := dict.New().Add("linked to", []dict.Entry{{Path: path, Score: 0.8}})
	q := &core.QueryGraph{
		Vertices: []core.Vertex{
			{Arg: core.Argument{Text: "what", Wh: true}, Unconstrained: true, Select: true},
			{Arg: core.Argument{Text: "thing"}, Candidates: []core.VertexCandidate{
				{ID: class, IsClass: true, Score: 0.9},
			}},
		},
		Edges: []core.Edge{{From: 1, To: 0, Phrase: phrase,
			Candidates: []core.EdgeCandidate{{Path: path, Score: 0.8}}}},
	}
	return g, q
}

// parallelExp compares the sequential top-k subgraph search to the worker
// pool at increasing widths on a synthetic workload heavy enough for the
// fan-out to matter: one class anchor whose instances each explore
// ~fanout² two-step routes. Parallel results are verified identical to
// the sequential baseline before timing. With -json PATH the speedup
// table is also written as JSON (the BENCH_parallel.json artifact).
func parallelExp() {
	const (
		nInst  = 400
		fanout = 40
		reps   = 5
	)
	g, q := matcherWorkload(nInst, fanout)

	type run struct {
		Parallelism int     `json:"parallelism"`
		NsPerOp     int64   `json:"ns_per_op"`
		Speedup     float64 `json:"speedup"`
		Identical   bool    `json:"identical_to_sequential"`
	}
	report := struct {
		GOMAXPROCS int            `json:"gomaxprocs"`
		NumCPU     int            `json:"num_cpu"`
		Seeds      int            `json:"seed_tasks"`
		Runs       []run          `json:"runs"`
		Metrics    map[string]any `json:"metrics"`
	}{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seeds: nInst}

	baseline, _ := core.FindTopKMatches(g, q, core.MatchOptions{TopK: 10, Parallelism: 1})
	var seqNs int64
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d — %d seed tasks per search\n",
		report.GOMAXPROCS, report.NumCPU, nInst)
	fmt.Println("parallelism  time/op      speedup  identical")
	for _, p := range []int{1, 2, 4, 8} {
		matches, _ := core.FindTopKMatches(g, q, core.MatchOptions{TopK: 10, Parallelism: p})
		identical := reflect.DeepEqual(matches, baseline)
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			core.FindTopKMatches(g, q, core.MatchOptions{TopK: 10, Parallelism: p})
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		if p == 1 {
			seqNs = best.Nanoseconds()
		}
		speedup := float64(seqNs) / float64(best.Nanoseconds())
		report.Runs = append(report.Runs, run{
			Parallelism: p, NsPerOp: best.Nanoseconds(), Speedup: speedup, Identical: identical,
		})
		fmt.Printf("%-12d %-12s %6.2f×  %v\n", p, best.Round(time.Microsecond), speedup, identical)
	}
	if report.NumCPU == 1 {
		fmt.Println("note: single-CPU host — speedup is bounded at ~1×; run on a multicore machine to see the pool scale")
	}
	if *jsonPath != "" {
		// The pipeline-metric state after the runs: matcher effort
		// (rounds/seeds/steps), FollowPath traffic — the workload's
		// observability fingerprint rides along with the timings.
		report.Metrics = obs.Default.Snapshot()
		writeJSON(*jsonPath, report)
	}
}

// writeJSON marshals a report and writes it to path.
func writeJSON(path string, report any) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gqa-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// ------------------------------------------------------------------- shard

// shardExp exercises the sharded scatter-gather matcher: a shard-count
// sweep (K ∈ {1,2,4,8}) over the store/parallel matcher workload with
// per-K latency, allocation, and identity-to-K=1 verification, plus the
// incremental re-freeze comparison on the 20k synthetic graph — after one
// Add, a sharded store rebuilds exactly one shard where the monolithic
// snapshot rebuilds everything. Identity, not speedup, is the sweep's
// gate: on a single-core box the scatter cannot win, but the answers must
// be byte-identical at every K. With -json PATH the comparison is written
// as JSON (the BENCH_shard.json artifact).
func shardExp() {
	const (
		nInst  = 400
		fanout = 40
		reps   = 5
	)
	type krun struct {
		Shards     int     `json:"shards"`
		P50NsPerOp int64   `json:"p50_ns_per_op"`
		BytesPerOp int64   `json:"bytes_per_op"`
		Speedup    float64 `json:"speedup_vs_k1"`
		Identical  bool    `json:"identical_to_k1"`
	}

	g, q := matcherWorkload(nInst, fanout)
	opts := core.MatchOptions{TopK: 10}

	g.SetShards(1)
	g.Freeze()
	baseMatches, baseStats := core.FindTopKMatches(g, q, opts)

	var runs []krun
	identicalAll := true
	var k1Ns int64
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d — %d seed tasks per search\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), nInst)
	fmt.Println("shards  p50/op       bytes/op   speedup  identical")
	for _, k := range []int{1, 2, 4, 8} {
		g.SetShards(k)
		matches, stats := core.FindTopKMatches(g, q, opts)
		identical := reflect.DeepEqual(matches, baseMatches) &&
			reflect.DeepEqual(stats, baseStats)
		identicalAll = identicalAll && identical

		samples := make([]int64, 0, reps)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			core.FindTopKMatches(g, q, opts)
			samples = append(samples, time.Since(start).Nanoseconds())
		}
		runtime.ReadMemStats(&ms1)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		p50 := samples[len(samples)/2]
		bytesPerOp := int64(ms1.TotalAlloc-ms0.TotalAlloc) / reps
		if k == 1 {
			k1Ns = p50
		}
		speedup := float64(k1Ns) / float64(p50)
		runs = append(runs, krun{Shards: k, P50NsPerOp: p50, BytesPerOp: bytesPerOp,
			Speedup: speedup, Identical: identical})
		fmt.Printf("%-7d %-12s %-10d %6.2f×  %v\n", k,
			time.Duration(p50).Round(time.Microsecond), bytesPerOp, speedup, identical)
	}

	// Incremental re-freeze on the 20k synthetic graph. Baseline: one Add
	// on the monolithic store re-freezes the whole graph. Sharded: an Add
	// whose subject and object live on the same shard (same residue mod K,
	// existing predicate, fresh triple — a duplicate Add is a no-op and
	// dirties nothing) re-freezes exactly that one shard.
	const shardsK = 8
	g20 := bench.NewSynthGraph(bench.SynthOptions{Seed: 7, Entities: 20000}).Graph
	pred := g20.Intern(g20.Triples()[0].Predicate)
	// Fresh vertices come out of Intern with consecutive IDs, so ids[0] and
	// ids[shardsK] share a residue; pairIdx walks disjoint pairs per rep.
	freshPair := func(rep, variant int) (store.ID, store.ID) {
		a := g20.Intern(rdf.Resource(fmt.Sprintf("shardexp-%d-%d-a", variant, rep)))
		var b store.ID
		for i := 0; ; i++ {
			b = g20.Intern(rdf.Resource(fmt.Sprintf("shardexp-%d-%d-b%d", variant, rep, i)))
			if int(b)%shardsK == int(a)%shardsK {
				return a, b
			}
		}
	}
	timeRefreeze := func(variant int) int64 {
		best := int64(0)
		for r := 0; r < 3; r++ {
			s, o := freshPair(r, variant)
			g20.AddSPO(s, pred, o)
			start := time.Now()
			g20.Freeze()
			if d := time.Since(start).Nanoseconds(); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	g20.SetShards(1)
	g20.Freeze()
	wholeNs := timeRefreeze(0)

	g20.SetShards(shardsK)
	g20.Freeze() // full sharded build, not timed
	shardFreezes := obs.DefaultCounter("gqa_store_shard_freezes_total", "")
	before := shardFreezes.Value()
	oneNs := timeRefreeze(1)
	rebuilt := shardFreezes.Value() - before
	oneShardOnly := rebuilt == 3 // 3 reps × exactly 1 shard each
	refreezeSpeedup := float64(wholeNs) / float64(oneNs)
	fmt.Printf("re-freeze after one Add (20k graph): whole-graph %s, single-shard %s (%.1f×), shards rebuilt/refreeze=%.1f\n",
		time.Duration(wholeNs).Round(time.Microsecond), time.Duration(oneNs).Round(time.Microsecond),
		refreezeSpeedup, float64(rebuilt)/3)

	report := struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		Seeds      int    `json:"seed_tasks"`
		Runs       []krun `json:"runs"`
		Refreeze   struct {
			WholeGraphNs  int64   `json:"whole_graph_ns"`
			SingleShardNs int64   `json:"single_shard_ns"`
			Speedup       float64 `json:"speedup"`
			ShardsRebuilt float64 `json:"shards_rebuilt_per_refreeze"`
		} `json:"refreeze_after_one_add"`
		Accept struct {
			IdenticalAllK    bool `json:"identical_all_k"`
			RefreezeOneShard bool `json:"refreeze_one_shard"`
			RefreezeAtLeast4 bool `json:"single_shard_refreeze_at_least_4x"`
			NumCPU           int  `json:"num_cpu"`
		} `json:"acceptance"`
		Metrics map[string]any `json:"metrics"`
	}{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seeds: nInst, Runs: runs}
	report.Refreeze.WholeGraphNs = wholeNs
	report.Refreeze.SingleShardNs = oneNs
	report.Refreeze.Speedup = refreezeSpeedup
	report.Refreeze.ShardsRebuilt = float64(rebuilt) / 3
	report.Accept.IdenticalAllK = identicalAll
	report.Accept.RefreezeOneShard = oneShardOnly
	report.Accept.RefreezeAtLeast4 = refreezeSpeedup >= 4
	report.Accept.NumCPU = runtime.NumCPU()
	if *jsonPath != "" {
		report.Metrics = obs.Default.Snapshot()
		writeJSON(*jsonPath, report)
	}
}

// ---------------------------------------------------------------- shardrpc

// shardrpcExp compares the in-process K=4 snapshot against the same four
// shards served over the RPC boundary (loopback ShardServers, the exact
// wire path of a gqa-shard deployment), over the whole benchmark
// workload. The identity gate — byte-identical answers, Explain lines,
// and MatchStats across the boundary — is the acceptance criterion; the
// p50/p99 delta is the price of the wire. With -json PATH the comparison
// is written as the BENCH_shardrpc.json artifact.
func shardrpcExp() {
	const (
		k    = 4
		reps = 5
	)
	// Export the shard parts through the file format and serve them.
	gExp := must(bench.BuildKB())
	gExp.SetShards(k)
	gExp.Freeze()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		var buf bytes.Buffer
		if err := store.SaveShardPart(&buf, gExp, i); err != nil {
			must(0, err)
		}
		part := must(store.LoadShardPart(bytes.NewReader(buf.Bytes())))
		ln := must(net.Listen("tcp", "127.0.0.1:0"))
		srv := store.NewShardServer(part)
		go srv.Serve(ln) //nolint:errcheck
		defer srv.Close()
		addrs[i] = ln.Addr().String()
	}

	buildSys := func(shards int) *core.System {
		g := must(bench.BuildKB())
		d, _, err := bench.BuildDictionary(g)
		if err != nil {
			must(0, err)
		}
		if shards > 1 {
			g.SetShards(shards)
		}
		g.Freeze()
		return core.NewSystem(g, d, core.Options{TopK: 10})
	}
	local := buildSys(k)
	remote := buildSys(1)
	rss := must(store.DialShards(addrs, remote.Graph.Terms(), store.RemoteOptions{}))
	defer rss.Close()
	remote.Graph.SetRemoteView(rss)

	fingerprint := func(sys *core.System, res *core.Result) string {
		var b bytes.Buffer
		for _, l := range res.AnswerLabels(sys.Graph) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		for i := range res.Matches {
			b.WriteString(core.RenderMatch(sys.Graph, res.Query, &res.Matches[i]))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%+v", res.Stats)
		return b.String()
	}

	qs := bench.Workload()
	pass := true
	var localNs, remoteNs []int64
	for _, q := range qs {
		lres := must(local.Answer(q.Text))
		rres := must(remote.Answer(q.Text))
		if rres.Degraded != "" || fingerprint(local, lres) != fingerprint(remote, rres) {
			pass = false
			fmt.Printf("IDENTITY FAILURE %q (degraded=%q)\n", q.Text, rres.Degraded)
		}
	}
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			start := time.Now()
			must(local.Answer(q.Text))
			localNs = append(localNs, time.Since(start).Nanoseconds())
			start = time.Now()
			must(remote.Answer(q.Text))
			remoteNs = append(remoteNs, time.Since(start).Nanoseconds())
		}
	}
	pctl := func(ns []int64, p float64) int64 {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		i := int(p * float64(len(ns)-1))
		return ns[i]
	}
	lp50, lp99 := pctl(localNs, 0.50), pctl(localNs, 0.99)
	rp50, rp99 := pctl(remoteNs, 0.50), pctl(remoteNs, 0.99)
	fmt.Printf("questions=%d reps=%d shards=%d\n", len(qs), reps, k)
	fmt.Printf("topology       p50/question  p99/question\n")
	fmt.Printf("in-process     %-13s %s\n", time.Duration(lp50).Round(time.Microsecond), time.Duration(lp99).Round(time.Microsecond))
	fmt.Printf("rpc-loopback   %-13s %s\n", time.Duration(rp50).Round(time.Microsecond), time.Duration(rp99).Round(time.Microsecond))
	fmt.Printf("identity: pass=%v (byte-identical answers, explains, stats across the RPC boundary)\n", pass)

	report := struct {
		Shards    int   `json:"shards"`
		Questions int   `json:"questions"`
		Reps      int   `json:"reps"`
		LocalP50  int64 `json:"local_p50_ns"`
		LocalP99  int64 `json:"local_p99_ns"`
		RemoteP50 int64 `json:"remote_p50_ns"`
		RemoteP99 int64 `json:"remote_p99_ns"`
		Accept    struct {
			Pass bool `json:"pass"`
		} `json:"identity"`
		Metrics map[string]any `json:"metrics"`
	}{Shards: k, Questions: len(qs), Reps: reps,
		LocalP50: lp50, LocalP99: lp99, RemoteP50: rp50, RemoteP99: rp99}
	report.Accept.Pass = pass
	if *jsonPath != "" {
		report.Metrics = obs.Default.Snapshot()
		writeJSON(*jsonPath, report)
	}
}

// --------------------------------------------------------------- coldstart

// coldstartExp measures how long it takes to go from bytes on disk to a
// servable (frozen) graph along the two boot paths: parsing N-Triples
// and freezing, and loading the GQAFRZ1 frozen snapshot (which arrives
// frozen). Each path is verified to produce the same frozen snapshot
// shape before timing. With -json PATH the comparison is written as JSON
// (the BENCH_coldstart.json artifact); frz_vs_nt_speedup is the headline.
func coldstartExp() {
	type pathRow struct {
		Format  string  `json:"format"`
		Bytes   int     `json:"bytes"`
		NsPerOp int64   `json:"ns_per_op"`
		Speedup float64 `json:"speedup_vs_ntriples"`
	}
	type dsRow struct {
		Dataset        string    `json:"dataset"`
		Triples        int       `json:"triples"`
		Terms          int       `json:"terms"`
		Paths          []pathRow `json:"paths"`
		FrzVsNtSpeedup float64   `json:"frz_vs_nt_speedup"`
	}
	// Round-robin the boot paths within each repetition (with a GC
	// between samples) so a noisy stretch of CPU cannot penalize one path
	// only; per-path best-of then clips what noise remains.
	const reps = 9
	bestOfAll := func(fns []func() *store.Graph) ([]int64, []*store.Graph) {
		best := make([]time.Duration, len(fns))
		graphs := make([]*store.Graph, len(fns))
		for r := 0; r < reps; r++ {
			for i, fn := range fns {
				runtime.GC()
				start := time.Now()
				graphs[i] = fn()
				if d := time.Since(start); best[i] == 0 || d < best[i] {
					best[i] = d
				}
			}
		}
		ns := make([]int64, len(fns))
		for i, d := range best {
			ns[i] = d.Nanoseconds()
		}
		return ns, graphs
	}

	datasets := []struct {
		name string
		g    *store.Graph
	}{
		{"mini-DBpedia", must(bench.BuildKB())},
		{"synthetic-5k", bench.NewSynthGraph(bench.SynthOptions{Seed: 7, Entities: 5000}).Graph},
		{"synthetic-20k", bench.NewSynthGraph(bench.SynthOptions{Seed: 7, Entities: 20000}).Graph},
	}

	var rows []dsRow
	minSpeedup := 0.0 // across the serving-scale synthetic datasets
	fmt.Println("dataset        format    bytes      load→servable  speedup")
	for _, ds := range datasets {
		var nt, frz bytes.Buffer
		if err := gqa.SaveGraph(&nt, ds.g); err != nil {
			must(0, err)
		}
		if err := store.SaveFrozen(&frz, ds.g); err != nil {
			must(0, err)
		}
		want := ds.g.Freeze()

		ns, graphs := bestOfAll([]func() *store.Graph{
			func() *store.Graph {
				g := store.New()
				if err := g.Load(bytes.NewReader(nt.Bytes())); err != nil {
					must(0, err)
				}
				g.Freeze()
				return g
			},
			func() *store.Graph {
				return must(store.LoadFrozen(bytes.NewReader(frz.Bytes())))
			},
		})
		ntNs, frzNs := ns[0], ns[1]
		for _, g := range graphs {
			sn := g.Frozen()
			if sn == nil || sn.NumTriples() != want.NumTriples() || sn.NumTerms() != want.NumTerms() {
				must(0, fmt.Errorf("coldstart: %s boot path diverged from source graph", ds.name))
			}
		}

		row := dsRow{Dataset: ds.name, Triples: want.NumTriples(), Terms: want.NumTerms()}
		for _, p := range []pathRow{
			{Format: "ntriples", Bytes: nt.Len(), NsPerOp: ntNs, Speedup: 1},
			{Format: "gqafrz1", Bytes: frz.Len(), NsPerOp: frzNs, Speedup: float64(ntNs) / float64(frzNs)},
		} {
			row.Paths = append(row.Paths, p)
			fmt.Printf("%-14s %-9s %-10d %-14s %6.1f×\n", ds.name, p.Format, p.Bytes,
				time.Duration(p.NsPerOp).Round(time.Microsecond), p.Speedup)
		}
		row.FrzVsNtSpeedup = float64(ntNs) / float64(frzNs)
		if ds.name != "mini-DBpedia" && (minSpeedup == 0 || row.FrzVsNtSpeedup < minSpeedup) {
			minSpeedup = row.FrzVsNtSpeedup
		}
		rows = append(rows, row)
	}
	fmt.Printf("GQAFRZ1 vs N-Triples: ≥%.1f× faster to servable on the bench graphs\n", minSpeedup)
	fmt.Println("(mini-DBpedia is 37KB — fixed per-load costs dominate; it boots in ~0.1ms either way)")

	report := struct {
		GOMAXPROCS int            `json:"gomaxprocs"`
		NumCPU     int            `json:"num_cpu"`
		Reps       int            `json:"best_of"`
		Datasets   []dsRow        `json:"datasets"`
		MinSpeedup float64        `json:"min_frz_vs_nt_speedup_bench_graphs"`
		Accept5x   bool           `json:"frz_at_least_5x_faster_than_ntriples"`
		Note       string         `json:"note"`
		Metrics    map[string]any `json:"metrics"`
	}{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Reps: reps,
		Datasets: rows, MinSpeedup: minSpeedup, Accept5x: minSpeedup >= 5,
		Note: "speedup floor taken over the serving-scale synthetic bench graphs; " +
			"the 37KB mini-DBpedia row is informational (fixed per-load costs dominate at that size)",
	}
	if *jsonPath != "" {
		report.Metrics = obs.Default.Snapshot()
		writeJSON(*jsonPath, report)
	}
}

// ------------------------------------------------------------------- cache

// cacheExp measures the answer cache on the benchmark workload: cold
// latency (first ask, a miss that runs the pipeline), warm latency
// (re-ask, a generation-keyed hit), and coalesced throughput (K identical
// questions in flight at once run the pipeline exactly once). With -json
// PATH the comparison is written as JSON (the BENCH_cache.json artifact);
// warm_speedup is the headline number.
func cacheExp() {
	sys := must(gqa.BenchmarkSystem())
	sys.SetCache(1024)
	qs := bench.Workload()

	type qrow struct {
		ID      string  `json:"id"`
		ColdNs  int64   `json:"cold_ns"`
		WarmNs  int64   `json:"warm_ns"`
		Speedup float64 `json:"speedup"`
	}
	const warmReps = 20
	var rows []qrow
	var coldTotal, warmTotal int64
	fmt.Println("question  cold         warm        speedup")
	for _, q := range qs {
		start := time.Now()
		must(sys.Answer(q.Text))
		cold := time.Since(start).Nanoseconds()
		warm := int64(0)
		for r := 0; r < warmReps; r++ {
			start = time.Now()
			must(sys.Answer(q.Text))
			if d := time.Since(start).Nanoseconds(); warm == 0 || d < warm {
				warm = d
			}
		}
		rows = append(rows, qrow{ID: q.ID, ColdNs: cold, WarmNs: warm,
			Speedup: float64(cold) / float64(warm)})
		coldTotal += cold
		warmTotal += warm
		fmt.Printf("%-9s %-12s %-11s %6.0f×\n", q.ID,
			time.Duration(cold).Round(time.Microsecond),
			time.Duration(warm).Round(time.Microsecond),
			float64(cold)/float64(warm))
	}
	warmSpeedup := float64(coldTotal) / float64(warmTotal)
	fmt.Printf("workload: cold %s, warm %s — %.0f× warm speedup\n",
		time.Duration(coldTotal).Round(time.Microsecond),
		time.Duration(warmTotal).Round(time.Microsecond), warmSpeedup)

	// Coalescing: K goroutines ask the same (never-cached-before) question
	// through a fresh cache. The pipeline must run once; K-1 callers share
	// the leader's answer.
	const K = 8
	sys.SetCache(1024) // fresh cache: the question below must be cold
	questions := obs.DefaultCounter("gqa_core_questions_total", "")
	coalesced := obs.DefaultCounter("gqa_cache_coalesced_total", "")
	hits := obs.DefaultCounter("gqa_cache_hits_total", "")
	q0, c0, h0 := questions.Value(), coalesced.Value(), hits.Value()
	target := qs[0].Text
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			must(sys.Answer(target))
		}()
	}
	wg.Wait()
	wallNs := time.Since(start).Nanoseconds()
	pipelineRuns := questions.Value() - q0
	coalescedWaiters := coalesced.Value() - c0
	// Callers arriving after the leader finished are hits instead of
	// coalesced waiters; either way the pipeline ran once.
	lateHits := hits.Value() - h0
	fmt.Printf("coalescing: %d concurrent identical questions → %d pipeline run(s), %d coalesced, %d hits, %s wall\n",
		K, pipelineRuns, coalescedWaiters, lateHits, time.Duration(wallNs).Round(time.Microsecond))

	report := struct {
		GOMAXPROCS   int     `json:"gomaxprocs"`
		NumCPU       int     `json:"num_cpu"`
		CacheEntries int     `json:"cache_entries"`
		Questions    []qrow  `json:"questions"`
		ColdTotalNs  int64   `json:"cold_total_ns"`
		WarmTotalNs  int64   `json:"warm_total_ns"`
		WarmSpeedup  float64 `json:"warm_speedup"`
		Coalescing   struct {
			Concurrency      int   `json:"concurrency"`
			PipelineRuns     int64 `json:"pipeline_runs"`
			CoalescedWaiters int64 `json:"coalesced_waiters"`
			LateHits         int64 `json:"late_hits"`
			WallNs           int64 `json:"wall_ns"`
		} `json:"coalescing"`
		Metrics map[string]any `json:"metrics"`
	}{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CacheEntries: 1024, Questions: rows,
		ColdTotalNs: coldTotal, WarmTotalNs: warmTotal, WarmSpeedup: warmSpeedup,
	}
	report.Coalescing.Concurrency = K
	report.Coalescing.PipelineRuns = pipelineRuns
	report.Coalescing.CoalescedWaiters = coalescedWaiters
	report.Coalescing.LateHits = lateHits
	report.Coalescing.WallNs = wallNs
	if *jsonPath != "" {
		report.Metrics = obs.Default.Snapshot()
		writeJSON(*jsonPath, report)
	}
}

// ---------------------------------------------------------------- ablations

func ablations() {
	ours, _, g := systems()
	qs := bench.Workload()

	fmt.Println("· TA early termination vs exhaustive candidate scan")
	probes := func(exhaustive bool) (int, time.Duration) {
		sys := core.NewSystem(g, ours.Dict, core.Options{TopK: 10, Exhaustive: exhaustive})
		total := 0
		start := time.Now()
		for _, q := range qs {
			if res, err := sys.Answer(q.Text); err == nil {
				total += res.Stats.AnchorsProbed
			}
		}
		return total, time.Since(start)
	}
	pTA, tTA := probes(false)
	pEx, tEx := probes(true)
	fmt.Printf("  TA: %d anchor probes in %s; exhaustive: %d in %s\n",
		pTA, tTA.Round(time.Millisecond), pEx, tEx.Round(time.Millisecond))

	fmt.Println("· neighborhood-based pruning")
	cut := func(disable bool) (kept, removed int) {
		sys := core.NewSystem(g, ours.Dict, core.Options{TopK: 10, DisablePruning: disable})
		for _, q := range qs {
			if res, err := sys.Answer(q.Text); err == nil {
				kept += res.Stats.CandidatesKept
				removed += res.Stats.CandidatesCut
			}
		}
		return
	}
	k1, c1 := cut(false)
	k2, c2 := cut(true)
	fmt.Printf("  with pruning: %d candidates kept, %d cut; without: %d kept, %d cut\n", k1, c1, k2, c2)

	fmt.Println("· predicate paths vs single predicates (the DEANNA restriction)")
	pathQs := 0
	answeredWithPaths := 0
	resOurs := eval.RunOurs(ours, qs)
	for _, r := range resOurs {
		if r.Question.Category == bench.CatPath {
			pathQs++
			if r.Outcome == eval.OutcomeRight {
				answeredWithPaths++
			}
		}
	}
	fmt.Printf("  path questions: %d; answered with paths: %d; answerable by single-predicate systems: 0\n",
		pathQs, answeredWithPaths)

	fmt.Println("· bidirectional BFS vs unidirectional DFS in mining")
	sg := bench.NewSynthGraph(bench.SynthOptions{Seed: 2, Entities: 5000})
	ps := bench.NewSynthPhrases(sg, bench.SynthPhraseOptions{Seed: 2, Phrases: 300, Support: 10})
	for _, uni := range []bool{false, true} {
		start := time.Now()
		dict.Mine(sg.Graph, ps.Sets, dict.MineOptions{MaxPathLen: 4, TopK: 3, Unidirectional: uni})
		name := "bidirectional"
		if uni {
			name = "unidirectional"
		}
		fmt.Printf("  %s: %s\n", name, time.Since(start).Round(time.Millisecond))
	}
}
