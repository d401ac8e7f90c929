// Command gqa-serve exposes the answering pipeline over HTTP: a small
// serving front end with the observability surface and overload
// protection wired in. The server itself lives in internal/serve so the
// benchmark (benchmark/, workload serve-zipf) and tests drive the same code.
//
// Usage:
//
//	gqa-serve [-addr host:port] [-graph graph.nt -dict dict.tsv]
//	          [-snapshot path.frz]
//	          [-shard-addrs host:p0,host:p1,...]
//	          [-aggregate] [-timeout d]
//	          [-cache N] [-max-question N]
//	          [-max-inflight N] [-max-queue N]
//	          [-client-qps QPS] [-client-burst N]
//	          [-drain-timeout d]
//	          [-flight-log events.jsonl] [-flight-slowest K]
//	          [-slo-ms N] [-pprof]
//
// -graph and -dict name a gqa.Source and gqa.Open boots it, with the cache
// and aggregation flags as its gqa.Options: without -graph it serves the
// bundled mini-DBpedia benchmark knowledge base, without -dict it mines the
// paraphrase dictionary from the bundled relation-phrase support sets
// (which fit the bundled KB and graphs that extend it). All this binary
// adds to the loader is the snapshot write-back policy below.
//
// -snapshot enables instant cold start: when the file exists and validates,
// the graph boots from the GQAFRZ1 frozen snapshot (a bulk checksummed read
// straight into the query-ready CSR arrays — no N-Triples parse, no
// freeze). When it is missing or rejected (corrupt, or written by an older
// format version), the graph is built the usual way and the frozen
// snapshot is written back (atomically, via rename) so the next restart is
// instant. Rolling restarts pay the parse cost once.
//
// Endpoints:
//
//	GET /answer?q=<question>[&trace=1]
//	    Answers a natural-language question; JSON response. With trace=1
//	    the response embeds the question's full span tree.
//	GET /metrics
//	    Every pipeline metric in the Prometheus text exposition format.
//	GET /debug/trace/latest
//	    The span tree of the most recently answered question, as JSON
//	    ("null" before the first question).
//	GET /debug/flight/slowest
//	    The flight recorder's retained tail: the K slowest successful
//	    requests plus every error/shed/degraded one, as wide events.
//	GET /debug/flight/trace/<id>
//	    One retained request by its X-Gqa-Trace-Id: the wide event plus
//	    the full span tree.
//	GET /debug/flight/slo
//	    Rolling p50/p95/p99 and multi-window burn rate against -slo-ms.
//	GET /debug/pprof/ (with -pprof)
//	    net/http/pprof profiles (heap, goroutine, CPU, …).
//	GET /healthz
//	    Liveness: 200 while the process serves HTTP.
//	GET /readyz
//	    Readiness: 200 while admitting, 503 once draining for shutdown.
//
// Every /answer response carries an X-Gqa-Trace-Id header; the flight
// recorder logs the same ID on the request's wide event (-flight-log, one
// JSON line per request, bounded rotation) so slow or degraded requests
// can be pulled back out of /debug/flight/* after the fact.
//
// Overload behaviour: at most -max-inflight questions run concurrently;
// up to -max-queue more wait in a deadline-aware FIFO (requests that can
// no longer finish inside their deadline are rejected early). Excess
// load is shed with structured 429 responses carrying Retry-After, and
// -client-qps bounds any single client (keyed by X-Client or remote
// host) so one hot caller cannot starve the rest. Under queue pressure
// the per-question budget shrinks in graded tiers (surfaced via the
// X-Gqa-Shed-Tier header and the "degraded" field) instead of the server
// tipping over.
//
// On SIGINT/SIGTERM the server stops admitting (429 "draining", /readyz
// 503), lets in-flight questions finish for up to -drain-timeout, then
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gqa"
	"gqa/internal/flight"
	"gqa/internal/serve"
	"gqa/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	graphPath := flag.String("graph", "", "N-Triples graph file (default: bundled mini-DBpedia)")
	dictPath := flag.String("dict", "", "paraphrase dictionary file (gqa-mine output)")
	snapPath := flag.String("snapshot", "", "GQAFRZ1 frozen snapshot: load on boot when valid, else rebuild and save here")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated gqa-shard addresses in shard order: serve frozen reads from remote shard servers")
	aggregate := flag.Bool("aggregate", false, "enable the counting/superlative extension")
	timeout := flag.Duration("timeout", 5*time.Second, "wall-clock budget per question (0 = unlimited)")
	cacheSize := flag.Int("cache", 4096, "answer-cache capacity in entries (0 = disabled)")
	maxQuestion := flag.Int("max-question", 1024, "maximum accepted question length in bytes")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent questions admitted to the pipeline (0 = 4×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "questions allowed to wait for a pipeline slot (0 = 8×max-inflight)")
	clientQPS := flag.Float64("client-qps", 0, "per-client sustained admission rate (0 = no per-client limit)")
	clientBurst := flag.Float64("client-burst", 0, "per-client admission burst (0 = 2×client-qps)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "time to let in-flight questions finish on shutdown")
	flightLog := flag.String("flight-log", "", "wide-event JSONL log file (empty = in-memory flight recorder only)")
	flightSlowest := flag.Int("flight-slowest", 32, "slowest successful traces retained for /debug/flight/slowest")
	sloMs := flag.Int("slo-ms", 250, "per-request latency objective in milliseconds (SLO tracker)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	sys, err := buildSystem(gqa.Source{Graph: *graphPath, Dict: *dictPath}, *snapPath,
		gqa.Options{EnableAggregation: *aggregate, Cache: gqa.CacheConfig{Entries: *cacheSize}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-serve:", err)
		os.Exit(1)
	}
	if *shardAddrs != "" {
		// Multi-process sharding: the coordinator keeps the local graph for
		// the dictionary, linker, and term table, but serves every frozen
		// read from the remote shard servers. A failure here is fatal — a
		// coordinator that cannot reach its shards cannot answer anything.
		addrs := strings.Split(*shardAddrs, ",")
		g := sys.Graph()
		rss, err := store.DialShards(addrs, g.Terms(), store.RemoteOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gqa-serve:", err)
			os.Exit(1)
		}
		defer rss.Close()
		if rss.Generation() != g.Generation() {
			fmt.Fprintf(os.Stderr, "gqa-serve: shard servers froze generation %d, local graph is at %d — re-export the shard parts\n",
				rss.Generation(), g.Generation())
			os.Exit(1)
		}
		g.SetRemoteView(rss)
		log.Printf("gqa-serve: serving frozen reads from %d remote shards (%s)", rss.NumShards(), *shardAddrs)
	}

	// The flight recorder is always on (bounded memory, zero steady-state
	// cost when idle); -flight-log additionally persists the wide events.
	recorder, err := flight.New(flight.Config{
		Path:      *flightLog,
		Slowest:   *flightSlowest,
		Objective: time.Duration(*sloMs) * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-serve:", err)
		os.Exit(1)
	}
	defer recorder.Close()

	handler := serve.New(sys, serve.Config{
		Timeout:     *timeout,
		MaxQuestion: *maxQuestion,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		ClientQPS:   *clientQPS,
		ClientBurst: *clientBurst,
		Flight:      recorder,
		Pprof:       *pprofOn,
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gqa-serve:", err)
		os.Exit(1)
	}
	log.Printf("gqa-serve: listening on http://%s", ln.Addr())
	// A configured http.Server, not bare http.Serve: without a
	// ReadHeaderTimeout any client can hold a connection open forever by
	// sending its headers one byte at a time (slowloris).
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Graceful shutdown: stop admitting on the first signal, drain
	// in-flight questions under -drain-timeout, then close.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("gqa-serve: %s — draining (up to %s)", sig, *drainTimeout)
		handler.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("gqa-serve: drain timeout exceeded, forcing close: %v", err)
			srv.Close()
		}
		log.Printf("gqa-serve: drained, bye")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// buildSystem is the snapshot write-back policy around gqa.Open: boot from
// the frozen snapshot when there is a valid one, else from the source
// graph, and then leave a snapshot behind for the next start.
func buildSystem(src gqa.Source, snapPath string, opts gqa.Options) (*gqa.System, error) {
	if snapPath != "" {
		start := time.Now()
		sys, err := gqa.Open(gqa.Source{Frozen: snapPath, Dict: src.Dict}, opts)
		switch {
		case err == nil:
			g := sys.Graph()
			log.Printf("gqa-serve: cold start from frozen snapshot %s: %d triples, %d terms, generation %d, ready in %s",
				snapPath, g.NumTriples(), g.NumTerms(), g.Generation(), time.Since(start).Round(time.Microsecond))
			return sys, nil
		case errors.Is(err, fs.ErrNotExist):
			// Open reports a missing -dict file with the same sentinel;
			// only a missing snapshot is the not-yet case.
			var pe *fs.PathError
			if !errors.As(err, &pe) || pe.Path != snapPath {
				return nil, err
			}
			log.Printf("gqa-serve: no frozen snapshot at %s yet, building from source", snapPath)
		default:
			// A corrupt or stale-format snapshot is not fatal: fall back to
			// the source graph and overwrite it below.
			log.Printf("gqa-serve: frozen snapshot rejected, rebuilding from source: %v", err)
		}
	}
	sys, err := gqa.Open(src, opts)
	if err != nil {
		return nil, err
	}
	if snapPath != "" {
		saveFrozenSnapshot(snapPath, sys)
	}
	return sys, nil
}

// saveFrozenSnapshot persists the system's frozen snapshot atomically
// (write to a temp file, then rename) so a crash mid-write can never leave
// a torn file that the next boot would have to reject. Failures are logged,
// not fatal: serving matters more than the cache for next time.
func saveFrozenSnapshot(path string, sys *gqa.System) {
	start := time.Now()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("gqa-serve: cannot write frozen snapshot: %v", err)
		return
	}
	if err := gqa.SaveFrozenSnapshot(f, sys.Graph()); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("gqa-serve: writing frozen snapshot: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		log.Printf("gqa-serve: closing frozen snapshot: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		log.Printf("gqa-serve: installing frozen snapshot: %v", err)
		return
	}
	log.Printf("gqa-serve: saved frozen snapshot to %s in %s (next start is instant)",
		path, time.Since(start).Round(time.Microsecond))
}
