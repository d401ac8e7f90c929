// Package gqa is a graph data-driven natural-language question answering
// engine over RDF, reproducing Zou et al., "Natural Language Question
// Answering over RDF — A Graph Data Driven Approach" (SIGMOD 2014).
//
// The engine answers questions like "Who was married to an actor that
// played in Philadelphia?" directly against an RDF graph. Instead of
// disambiguating the question into a single SPARQL query up front, it
// builds a semantic query graph that keeps every candidate meaning of
// every phrase and lets subgraph matching over the data decide: a
// candidate mapping is correct exactly when a matching subgraph exists.
//
// # Quick start
//
//	sys, err := gqa.Open(gqa.Source{Graph: "kb.nt", Dict: "dict.tsv"}, gqa.Options{})
//	...
//	ans, err := sys.Answer("Who is the mayor of Berlin?")
//	fmt.Println(ans.Labels) // [Klaus Wowereit]
//
// Open with the zero Source is a self-contained engine over the bundled
// mini-DBpedia knowledge base with a freshly mined paraphrase dictionary.
//
// The deeper layers are importable individually for advanced use:
// internal/store (the triple store), internal/dict (Algorithm 1 offline
// mining), internal/nlp (the dependency parser), internal/core (semantic
// query graphs and top-k matching), internal/sparql (a SPARQL subset), and
// internal/deanna (the DEANNA joint-disambiguation baseline).
package gqa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/obs"
	"gqa/internal/qcache"
	"gqa/internal/rdf"
	"gqa/internal/sparql"
	"gqa/internal/store"
)

// Options configures a System.
type Options struct {
	// TopK is k: the search keeps the k best matches, counted in matches,
	// together with every match tied with the k-th (default 10, as in the
	// paper's experiments). Answers come from the best score alone.
	TopK int
	// MaxCandidates caps each argument's entity-linking candidate list
	// (default 10).
	MaxCandidates int
	// DisableHeuristicRules turns off the four argument heuristics of
	// §4.1.2 (the Table 9 ablation).
	DisableHeuristicRules bool
	// EnableAggregation turns on the counting/superlative extension (the
	// paper's future work). The mini-DBpedia's superlatives (youngest and
	// oldest by ⟨age⟩, highest by ⟨elevation⟩, tallest by ⟨height⟩) are
	// registered for the predicates the graph has; RegisterSuperlative adds
	// more.
	EnableAggregation bool
	// Budget bounds the resources each Answer/Query call may consume
	// (wall-clock timeout, search steps, candidate expansions, SPARQL
	// rows). The zero value means unlimited — identical behavior to an
	// unbudgeted engine. See AnswerContext for the degradation contract.
	Budget Budget
	// Cache configures the generation-aware answer cache. The zero value
	// disables caching entirely — bit-identical behavior to the uncached
	// engine. See the Caching section of the README for the key structure
	// and invalidation contract.
	Cache CacheConfig
}

// CacheConfig sizes the answer cache (see Options.Cache).
type CacheConfig struct {
	// Entries is the maximum number of cached results (answers and SPARQL
	// result sets share the capacity). Zero disables caching.
	Entries int
}

// System is a ready-to-query Q/A engine: an RDF graph, a paraphrase
// dictionary, and the online pipeline. Safe for concurrent use once built.
type System struct {
	graph  *store.Graph
	dict   *dict.Dictionary
	core   *core.System
	budget Budget
	cache  *qcache.Cache
	// cacheSalt invalidates cached answers on engine mutations the graph
	// generation cannot see: dictionary replacement (MineDictionary) and
	// superlative registration both change answers without touching a
	// triple, so each bump retires every cached entry via the key.
	cacheSalt atomic.Uint64
}

// NewSystem assembles a System from a loaded graph and dictionary. A nil
// dictionary starts empty (mine one with MineDictionary).
//
// The graph is frozen here (see store.Graph.Freeze): the facade serves
// every question and query from the immutable CSR snapshot, and linker
// construction below already indexes through it. Mutating the graph after
// construction invalidates the snapshot; the next Answer/Query call
// re-freezes at the new mutation generation.
func NewSystem(g *store.Graph, d *dict.Dictionary, opts Options) *System {
	if d == nil {
		d = dict.New()
	}
	g.Freeze()
	eng := core.NewSystem(g, d, core.Options{
		TopK:                  opts.TopK,
		MaxVertexCandidates:   opts.MaxCandidates,
		DisableHeuristicRules: opts.DisableHeuristicRules,
		EnableAggregation:     opts.EnableAggregation,
		Budget:                opts.Budget.limits(),
	})
	if opts.EnableAggregation {
		bench.RegisterSuperlatives(eng, g)
	}
	return &System{
		graph:  g,
		dict:   d,
		budget: opts.Budget,
		cache:  qcache.New(opts.Cache.Entries),
		core:   eng,
	}
}

// RegisterSuperlative teaches the aggregation extension how to interpret a
// superlative adjective: rank candidate answers by the numeric object of
// predIRI, taking the maximum (max=true: "oldest") or minimum ("youngest").
func (s *System) RegisterSuperlative(adjective, predIRI string, max bool) bool {
	id, ok := s.graph.LookupIRI(predIRI)
	if !ok {
		return false
	}
	s.core.RegisterSuperlative(adjective, id, max)
	s.cacheSalt.Add(1)
	return true
}

// Source names what Open builds a System from. The zero value is the
// bundled mini-DBpedia knowledge base with a dictionary mined on the spot.
type Source struct {
	// Graph is an N-Triples file; Frozen is a GQAFRZ1 frozen snapshot
	// (SaveFrozenSnapshot, gqa-gen frozen), which arrives validated and
	// installed at its saved mutation generation, so the first Freeze is a
	// pointer load. At most one of the two; neither means the bundled KB.
	Graph  string
	Frozen string
	// Dict is an encoded paraphrase dictionary (gqa-mine output). Empty
	// means mine one (Algorithm 1) from the bundled relation-phrase support
	// sets, which fit the bundled KB and graphs that extend it.
	Dict string
}

// Open is the one way to boot a System from files: it loads the graph the
// source names, loads or mines the dictionary, and assembles the engine
// with opts. A file that does not exist is reported with an error that
// wraps fs.ErrNotExist.
func Open(src Source, opts Options) (*System, error) {
	var (
		g   *store.Graph
		err error
	)
	switch {
	case src.Graph != "" && src.Frozen != "":
		return nil, errors.New("gqa: a graph file and a frozen snapshot are mutually exclusive")
	case src.Frozen != "":
		g, err = readFile(src.Frozen, store.LoadFrozen)
	case src.Graph != "":
		g, err = readFile(src.Graph, func(r io.Reader) (*store.Graph, error) {
			g := store.New()
			return g, g.Load(r)
		})
	default:
		g, err = bench.BuildKB()
	}
	if err != nil {
		return nil, fmt.Errorf("gqa: loading graph: %w", err)
	}
	var d *dict.Dictionary
	if src.Dict != "" {
		d, err = readFile(src.Dict, func(r io.Reader) (*dict.Dictionary, error) { return dict.Decode(r, g) })
	} else if d, _, err = bench.BuildDictionary(g); err != nil {
		err = fmt.Errorf("no dictionary file given and the bundled phrase set does not fit this graph (mine one with gqa-mine): %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("gqa: loading dictionary: %w", err)
	}
	return NewSystem(g, d, opts), nil
}

// readFile opens path, hands it to load and closes it.
func readFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return load(f)
}

// MineDictionary runs the offline stage (Algorithm 1) over the system's
// graph with the given relation-phrase support sets and replaces the
// system's dictionary with the result.
func (s *System) MineDictionary(sets []dict.SupportSet, maxPathLen, topK int) {
	d, _ := dict.Mine(s.graph, sets, dict.MineOptions{MaxPathLen: maxPathLen, TopK: topK})
	s.dict = d
	s.core.Dict = d
	s.cacheSalt.Add(1)
}

// WriteMetrics writes every pipeline metric in the Prometheus text
// exposition format — the payload of gqa-serve's /metrics endpoint,
// exposed here so any host process can mount its own scrape handler.
// Metrics are process-wide (all Systems share one registry, as all
// questions share one process).
func (s *System) WriteMetrics(w io.Writer) error {
	// Scrape-time refresh: the registry is process-wide and a cache is one
	// System's, so the system being scraped reports its own occupancy.
	s.cache.SyncGauge()
	return obs.Default.WritePrometheus(w)
}

// Graph exposes the underlying triple store (read-only use expected).
func (s *System) Graph() *store.Graph { return s.graph }

// Dictionary exposes the paraphrase dictionary.
func (s *System) Dictionary() *dict.Dictionary { return s.dict }

// Answer holds the outcome of one question.
type Answer struct {
	// Labels are the human-readable answers, best first.
	Labels []string
	// IRIs are the answer terms in N-Triples syntax, aligned with Labels.
	IRIs []string
	// Boolean is set for yes/no questions.
	Boolean *bool
	// OK reports whether the engine produced an answer.
	OK bool
	// Failure explains an unanswered question: "aggregation",
	// "entity-linking", "relation-extraction", "no-match", or "".
	Failure string
	// SPARQL is the fully disambiguated SPARQL query corresponding to the
	// best match (Algorithm 3's "top-k SPARQL queries" artifact), when one
	// exists. It evaluates to the same answers on the same graph and can
	// be exported to any SPARQL endpoint. It is empty for a count or a
	// superlative the aggregation extension answered: the dialect has no
	// COUNT, and ORDER BY would not reproduce the ranking's parse and tie
	// rules.
	SPARQL string
	// Degraded is set when a budget (Options.Budget or the caller's
	// context) ran out before the search completed: "deadline",
	// "canceled", "steps", or "candidates"; when a remote shard could not
	// be read ("shard-unavailable"); or when more matches tied at the
	// top-k cut than the matcher holds at once ("matches"). The answer then
	// reflects the best partial top-k found — possibly empty — rather than
	// the full search. An answer produced under a load-shedding tier
	// (AnswerShed) carries a "shed:tierN" prefix: alone when the search
	// still completed, joined as "shed:tierN/steps" when the shrunken
	// budget cut it short. Empty for a complete, trustworthy answer served
	// at full budget.
	Degraded string
	// ShedTier is the load-shedding tier the pipeline ran at (see
	// AnswerShed and Budget.Shed): 0 for full-budget service, 1–3 under
	// graded overload. Cache hits report 0 — they cost no pipeline work,
	// so no shedding applied.
	ShedTier int
	// Understanding and Total are the stage timings of Figure 6. A cache
	// hit or coalesced answer times its own call: Understanding 0 (it
	// understood nothing) and Total the call's wall time.
	Understanding time.Duration
	Total         time.Duration
	// Trace is the question's span tree — per-stage timings and counters
	// down to individual matcher rounds — when the call was traced
	// (AnswerTraced, ExplainContext, or a context carrying obs.WithTrace).
	// Nil on untraced calls: tracing is strictly opt-in and the disabled
	// path costs nothing. Render it with Trace.Tree() or Trace.JSON().
	Trace *obs.Trace
	// TraceID is the correlation ID of the trace the call carried
	// (obs.Trace.SetID): under gqa-serve the value of the X-Gqa-Trace-Id
	// header, which the flight recorder logs on the wide event and
	// /debug/flight/trace/<id> resolves. Empty otherwise.
	TraceID string

	// query and matches are the resolved Q^S and its top-k matches (the
	// base question's for an aggregation), kept unrendered: QueryGraph and
	// ExplainContext render them only when read. Both are immutable once
	// the pipeline returns, so copies of the answer share them.
	query   *core.QueryGraph
	matches []core.Match
}

// QueryGraph renders the semantic query graph Q^S built for the question —
// the structural representation of the query intention — or "" when the
// pipeline stopped before building one.
func (a *Answer) QueryGraph() string {
	if a.query == nil {
		return ""
	}
	return a.query.String()
}

// Answer runs the full online pipeline on a natural-language question.
// Panics in the pipeline surface as *PipelineError; use AnswerContext to
// additionally bound the work with a deadline.
func (s *System) Answer(question string) (*Answer, error) {
	return s.AnswerContext(context.Background(), question)
}

// buildAnswer converts a core result into the public Answer shape.
func (s *System) buildAnswer(res *core.Result) *Answer {
	out := &Answer{
		Boolean:       res.Boolean,
		Degraded:      res.Degraded,
		Understanding: res.Timing.Understanding,
		Total:         res.Timing.Total,
		query:         res.Query,
		matches:       res.Matches,
	}
	if res.Failure != core.FailureNone {
		out.Failure = res.Failure.String()
		return out
	}
	out.OK = res.Boolean != nil || len(res.Answers) > 0 || res.Count != nil
	for _, id := range res.Answers {
		out.Labels = append(out.Labels, s.graph.LabelOf(id))
		out.IRIs = append(out.IRIs, s.graph.Term(id).String())
	}
	if res.Count != nil {
		out.Labels = append(out.Labels, fmt.Sprintf("%d", *res.Count))
		out.IRIs = append(out.IRIs, fmt.Sprintf(`"%d"`, *res.Count))
	}
	if len(res.Matches) > 0 && res.Query != nil && !res.Aggregated {
		if sq, err := core.ResolvedSPARQL(s.graph, res.Query, &res.Matches[0]); err == nil {
			out.SPARQL = sq.String()
		}
	}
	return out
}

// Query evaluates a SPARQL query (SELECT/ASK over basic graph patterns)
// against the graph — the power-user path next to natural language.
// Panics surface as *PipelineError; use QueryContext to bound the work.
func (s *System) Query(query string) (*sparql.Result, error) {
	return s.QueryContext(context.Background(), query)
}

// Explain answers a question and additionally renders each top match:
// which entities and predicate paths realized the query graph — the
// resolved disambiguation of §4.2.1.
func (s *System) Explain(question string) (*Answer, []string, error) {
	return s.ExplainContext(context.Background(), question)
}

// ExplainContext is Explain under a context (deadline, cancellation) and
// the system's Budget; the answer carries its trace, as AnswerTraced's
// does. The explain lines render the matches of that same answer — the
// top-k of this call, under this call's budget, or a cached entry's, which
// holds the matches themselves — so the lines cannot drift from the answer
// they explain.
func (s *System) ExplainContext(ctx context.Context, question string) (ans *Answer, lines []string, err error) {
	defer recoverPipeline("explain", question, &err)
	ans, err = s.AnswerTraced(ctx, question)
	if err != nil {
		return nil, nil, err
	}
	for i := range ans.matches {
		lines = append(lines, core.RenderMatch(s.graph, ans.query, &ans.matches[i]))
	}
	return ans, lines, nil
}

// SaveGraph serializes a graph as N-Triples, sorted deterministically.
func SaveGraph(w io.Writer, g *store.Graph) error {
	triples := g.Triples()
	sort.Slice(triples, func(i, j int) bool { return triples[i].Compare(triples[j]) < 0 })
	return rdf.Write(w, triples)
}

// SaveFrozenSnapshot writes the graph's frozen CSR snapshot in the GQAFRZ1
// format (freezing first if needed). Unlike SaveGraph's N-Triples — the
// interchange format, and the one to rebuild from when a frozen file is
// rejected — it serializes the query-ready arrays themselves, so loading it
// skips parsing, interning, sorting, and the freeze entirely: the
// instant-cold-start path for gqa-serve.
func SaveFrozenSnapshot(w io.Writer, g *store.Graph) error { return store.SaveFrozen(w, g) }
