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
//	sys, err := gqa.LoadSystem(graphFile, dictFile)
//	...
//	ans, err := sys.Answer("Who is the mayor of Berlin?")
//	fmt.Println(ans.Labels) // [Klaus Wowereit]
//
// Use BenchmarkSystem for a self-contained engine over the bundled
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
	"sort"
	"sync/atomic"
	"time"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/dict"
	"gqa/internal/flight"
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
	// paper's future work). Superlative adjectives are interpreted via
	// RegisterSuperlative.
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
	// Flight is the flight recorder wide events are emitted to: one
	// structured event per answered question, plus tail-sampled trace
	// retention (see internal/flight and gqa-serve's /debug/flight/*
	// endpoints). Nil disables recording at zero cost — the exact
	// unrecorded code path, like a nil trace.
	Flight *flight.Recorder
}

// CacheConfig sizes the answer cache (see Options.Cache and SetCache).
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
	flight *flight.Recorder
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
	return &System{
		graph:  g,
		dict:   d,
		budget: opts.Budget,
		cache:  qcache.New(opts.Cache.Entries),
		flight: opts.Flight,
		core: core.NewSystem(g, d, core.Options{
			TopK:                  opts.TopK,
			MaxVertexCandidates:   opts.MaxCandidates,
			DisableHeuristicRules: opts.DisableHeuristicRules,
			EnableAggregation:     opts.EnableAggregation,
			Budget:                opts.Budget.limits(),
		}),
	}
}

// SetAggregation toggles the counting/superlative extension at runtime.
func (s *System) SetAggregation(on bool) { s.core.Opts.EnableAggregation = on }

// SetCache replaces the answer cache with a fresh one holding up to
// entries results (zero disables caching — the exact uncached code path).
// The binaries use it to honor their -cache flag over systems built with
// default options. Not safe to call concurrently with Answer.
func (s *System) SetCache(entries int) { s.cache = qcache.New(entries) }

// SetFlight installs (or, with nil, removes) the flight recorder wide
// events are emitted to — the runtime form of Options.Flight. Not safe to
// call concurrently with Answer.
func (s *System) SetFlight(r *flight.Recorder) { s.flight = r }

// Flight returns the installed flight recorder (nil when disabled); the
// serving layer mounts its /debug/flight/* endpoints over it.
func (s *System) Flight() *flight.Recorder { return s.flight }

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

// LoadSystem reads an N-Triples graph and an encoded paraphrase dictionary
// (the gqa-mine output format) and assembles a System with default
// options.
func LoadSystem(graph, dictionary io.Reader) (*System, error) {
	g := store.New()
	if err := g.Load(graph); err != nil {
		return nil, fmt.Errorf("gqa: loading graph: %w", err)
	}
	d, err := dict.Decode(dictionary, g)
	if err != nil {
		return nil, fmt.Errorf("gqa: loading dictionary: %w", err)
	}
	return NewSystem(g, d, Options{}), nil
}

// BenchmarkSystem builds a self-contained System over the bundled
// mini-DBpedia knowledge base, mining its paraphrase dictionary on the
// spot (Algorithm 1). It is the zero-setup way to try the engine.
func BenchmarkSystem() (*System, error) {
	g, err := bench.BuildKB()
	if err != nil {
		return nil, err
	}
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		return nil, err
	}
	return NewSystem(g, d, Options{}), nil
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

// Metrics returns a point-in-time snapshot of every pipeline metric —
// counters, gauges, and histogram states, keyed by metric name with its
// rendered label set. Metrics are process-wide (all Systems share one
// registry, as all questions share one process).
func (s *System) Metrics() map[string]any {
	s.cache.SyncGauge()
	return obs.Default.Snapshot()
}

// WriteMetrics writes every pipeline metric in the Prometheus text
// exposition format — the payload of gqa-serve's /metrics endpoint,
// exposed here so any host process can mount its own scrape handler.
func (s *System) WriteMetrics(w io.Writer) error {
	// Scrape-time refresh for gauges whose owner is replaceable (SetCache):
	// the cache reports its own occupancy instead of tracking deltas that
	// would outlive a swapped-out instance.
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
	// QueryGraph renders the semantic query graph Q^S built for the
	// question — the structural representation of the query intention.
	QueryGraph string
	// SPARQL is the fully disambiguated SPARQL query corresponding to the
	// best match (Algorithm 3's "top-k SPARQL queries" artifact), when one
	// exists. It evaluates to the same answers on the same graph and can
	// be exported to any SPARQL endpoint.
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
	// Understanding and Total are the stage timings of Figure 6.
	Understanding time.Duration
	Total         time.Duration
	// Trace is the question's span tree — per-stage timings and counters
	// down to individual matcher rounds — when the call was traced
	// (AnswerTraced, ExplainContext, or a context carrying obs.WithTrace).
	// Nil on untraced calls: tracing is strictly opt-in and the disabled
	// path costs nothing. Render it with Trace.Tree() or Trace.JSON().
	Trace *obs.Trace
	// TraceID is the request's correlation ID: the same value the serving
	// layer returns in the X-Gqa-Trace-Id header, the flight recorder logs
	// on the wide event, and /debug/flight/trace/<id> resolves. Empty when
	// the call was neither traced nor flight-recorded.
	TraceID string
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
	}
	if res.Query != nil {
		out.QueryGraph = res.Query.String()
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
	if len(res.Matches) > 0 && res.Query != nil {
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
// the system's Budget. The explain lines are read back from the answer's
// trace — the pipeline records one "match" span per top match with the
// rendered disambiguation as its "render" attribute — so the explain
// output and the trace output are the same object and cannot drift.
func (s *System) ExplainContext(ctx context.Context, question string) (ans *Answer, lines []string, err error) {
	defer recoverPipeline("explain", question, &err)
	ans, err = s.AnswerTraced(ctx, question)
	if err != nil {
		return nil, nil, err
	}
	return ans, ans.Trace.FindAttrs("match", "render"), nil
}

// ErrNoAnswer is a sentinel some callers prefer over inspecting Failure.
var ErrNoAnswer = errors.New("gqa: no answer found")

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

// LoadSystemFrozen assembles a System from a GQAFRZ1 frozen snapshot and an
// encoded dictionary. The returned system is immediately servable: the
// snapshot arrives validated and pre-installed at its saved mutation
// generation (so generation-keyed cache entries remain coherent), and the
// first Freeze is a pointer load.
func LoadSystemFrozen(frozen, dictionary io.Reader) (*System, error) {
	g, err := store.LoadFrozen(frozen)
	if err != nil {
		return nil, fmt.Errorf("gqa: loading frozen snapshot: %w", err)
	}
	d, err := dict.Decode(dictionary, g)
	if err != nil {
		return nil, fmt.Errorf("gqa: loading dictionary: %w", err)
	}
	return NewSystem(g, d, Options{}), nil
}
