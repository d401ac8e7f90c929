package main

// The benchmark's names. BENCHMARK.json at the repository root declares
// the same workloads and metrics; bench_test.go keeps the two in step.

const (
	wlQald       = "qald"
	wlNLScale    = "nl-scale"
	wlMatchLocal = "match-local"
	wlMatchRPC   = "match-rpc"
	wlServeZipf  = "serve-zipf"
)

var workloadNames = []string{wlQald, wlNLScale, wlMatchLocal, wlMatchRPC, wlServeZipf}

// metricSpec names one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a caller of the system sees; reported by the untraced
// run on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"answer_p50_ms", "ms", "lower", 0.25},
	{"answer_p95_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"correct_share", "share", "higher", 0.005},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer is reported by the traced run, named <module>.<metric>. A
// metric whose layer a workload does not use reads 0 there.
var perLayer = []metricSpec{
	// Understanding and per-question fixed overhead (moves qald).
	{"nlp.parse_us_p50", "us", "lower", 0},
	{"core.extract_us_p50", "us", "lower", 0},
	{"core.build_qgraph_self_us_p50", "us", "lower", 0},
	{"facade.overhead_us_p50", "us", "lower", 0},
	{"facade.allocs_per_question", "count", "lower", 0},
	{"facade.bytes_per_question", "B", "lower", 0},
	{"facade.answer_p99_ms", "ms", "lower", 0},
	// Entity linking (moves nl-scale, and the misses of serve-zipf).
	{"linker.link_us_p50", "us", "lower", 0},
	{"linker.link_us_p95", "us", "lower", 0},
	{"linker.calls_per_question", "count", "lower", 0},
	{"linker.candidates_per_call", "count", "lower", 0},
	{"linker.share", "share", "lower", 0},
	// Top-k subgraph matching (moves match-local and match-rpc).
	{"core.match_us_p50", "us", "lower", 0},
	{"core.match_us_p95", "us", "lower", 0},
	{"core.match_steps_per_question", "count", "lower", 0},
	{"core.match_seeds_per_question", "count", "lower", 0},
	{"core.match_rounds_per_question", "count", "lower", 0},
	{"core.match_useful_share", "share", "higher", 0},
	{"core.share", "share", "lower", 0},
	{"dict.followpath_per_question", "count", "lower", 0},
	{"store.calls_per_question", "count", "lower", 0},
	{"store.edges_per_question", "count", "lower", 0},
	// The same search in the other deployment shapes.
	{"core.match_p1_us_p50", "us", "lower", 0},
	{"core.match_parallel_speedup", "ratio", "higher", 0},
	{"core.match_k4_us_p50", "us", "lower", 0},
	{"core.match_mutable_us_p50", "us", "lower", 0},
	// The shard RPC boundary (moves match-rpc only).
	{"store.rpc_calls_per_question", "count", "lower", 0},
	{"store.rpc_call_us_mean", "us", "lower", 0},
	{"store.rpc_call_us_p50", "us", "lower", 0},
	{"store.rpc_call_us_p95", "us", "lower", 0},
	{"store.rpc_retries_per_question", "count", "lower", 0},
	{"store.rpc_hedges_per_question", "count", "lower", 0},
	{"store.rpc_share", "share", "lower", 0},
	{"store.rpc_local_ratio", "ratio", "lower", 0},
	// Set-up parts (move setup_s and heap_mb).
	{"store.freeze_ms", "ms", "lower", 0},
	{"store.refreeze_one_add_ms", "ms", "lower", 0},
	{"store.snapshot_mb", "MB", "lower", 0},
	{"linker.index_build_ms", "ms", "lower", 0},
	{"dict.mine_ms", "ms", "lower", 0},
	{"store.shard_export_load_ms", "ms", "lower", 0},
	// Serving: cache, admission, HTTP (move serve-zipf).
	{"qcache.hit_share", "share", "higher", 0},
	{"qcache.evictions_per_s", "1/s", "lower", 0},
	{"qcache.coalesced_share", "share", "higher", 0},
	{"qcache.hit_us_p50", "us", "lower", 0},
	{"admission.queue_wait_us_p95", "us", "lower", 0},
	{"admission.shed_share", "share", "lower", 0},
	{"admission.rejected_share", "share", "lower", 0},
	{"serve.http_overhead_us_p50", "us", "lower", 0},
	{"serve.generator_late_us_p95", "us", "lower", 0},
	// Runtime, and the harness's own health checks.
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"facade.stage_sum_ratio", "ratio", "higher", 0},
	{"facade.trace_overhead_ratio", "ratio", "lower", 0},
	{"facade.replay_skipped_share", "share", "lower", 0},
}

// sizes fixes how large each workload's inputs are. Tests shrink them.
type sizes struct {
	nlPeople   int // nl-scale: people in the generated KB
	nlMix      nlMix
	films      int // match-local: films in the cinema KB
	cast       int // actors per film, a multiple of four
	mix        cinemaMix
	rpcFilms   int // match-rpc: the same three for its smaller KB
	rpcCast    int
	rpcMix     cinemaMix
	zipfPeople int // serve-zipf: people in the generated KB
	zipfKeys   int // distinct questions drawn Zipf(1.1)
	zipfCache  int // answer-cache entries
	zipfRate   float64
	// Requests in the pass of a latency round and of a throughput round.
	zipfLatencyAsks, zipfThroughputAsks int
}

// Open-loop arrival rate of serve-zipf's traced run, in requests per
// second. Measured once at the seed commit and frozen, not derived per run.
// The two-connection closed loop completes well over 1000/s on this
// workload, but a miss holds a connection for 3 to 6 ms, and with only
// nproc connections to send on, the generator itself queues whenever two
// misses overlap a due time. At 120/s requests are due 8.3 ms apart, longer
// than a miss, so the generator's own lateness stays far below a cache hit.
const zipfOpenLoopRate = 120.0

var fullSizes = sizes{
	nlPeople: 20000, nlMix: nlMix{married: 17, lives: 17, peopleIn: 6},
	films: 4000, cast: 12, mix: cinemaMix{spouse: 4, castOf: 20, director: 4},
	rpcFilms: 240, rpcCast: 4, rpcMix: cinemaMix{spouse: 12, castOf: 2, director: 6},
	zipfPeople: 10000, zipfKeys: 512, zipfCache: 192, zipfRate: zipfOpenLoopRate,
	zipfLatencyAsks: 512, zipfThroughputAsks: 1024,
}
