# Tier-1 verify: everything CI (and the repo driver) runs. The race
# detector is part of the standard gate — the answering pipeline is
# served concurrently and the budget/degradation layer must stay
# data-race free. fuzz-seeds replays the checked-in fuzz corpus seeds
# (one deterministic pass, no fuzzing engine) so the parser regressions
# they encode are part of the gate. The *-smoke targets drive the real
# binaries end to end. Every gate here is a test that can fail; how fast
# the system is comes from one place, benchmark/ (BENCHMARK.json), which
# bench-build compiles and runs on all five workloads for a few seconds.

GO ?= go

.PHONY: tier1 fmt vet build bench-build test race allocs fuzz fuzz-seeds bench loc cover serve-smoke snapshot-smoke flight-smoke shard-rpc-smoke

tier1: fmt vet build bench-build race allocs fuzz-seeds snapshot-smoke flight-smoke shard-rpc-smoke

# Every Go file in the tree, benchmark/ included, is gofmt-clean.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# benchmark/ is a module of its own (it imports gqa/internal/... through a
# replace directive), so vet and build above never compile it: a renamed
# store or core symbol would pass them and break the benchmark. Vet and
# build it here, then run its smallest workload for three seconds — the
# shortest run the harness accepts as valid (five rounds of each kind) —
# and match-local for as long: its verification (every cinema gold set
# right, no reference answer degraded) is the only place the matcher's
# score bound and its match cap meet a 100k-triple graph. Then match-rpc:
# its verification (every answer identical to a local K = 1 copy) is the
# only tier-1 place the matcher meets the prefetching RPC client on the
# benchmark's own fixture. Then nl-scale: its verification (every answer
# equal to the generator's gold on the 20 000-person KB) is the only
# tier-1 place the linker's stop rule meets a 20 000-slot run of tied
# scores, and where its per-slot bound meets names whose two name tokens
# are each on ~830 slots' postings. Last serve-zipf, the only workload that
# goes through the HTTP handler, the flight recorder and the answer cache:
# its verification requires every answer served over HTTP, cached ones
# included, to equal the engine's own and the generator's gold. It runs
# five seconds: its rounds are longer, and three seconds make four rounds
# of each kind on two cores, one fewer than the harness accepts.
bench-build:
	cd benchmark && GOFLAGS=-mod=mod GOWORK=off $(GO) vet . && GOFLAGS=-mod=mod GOWORK=off $(GO) build -o /dev/null .
	bash benchmark/run.sh --workload qald --seconds 3
	bash benchmark/run.sh --workload match-local --seconds 3
	bash benchmark/run.sh --workload match-rpc --seconds 3
	bash benchmark/run.sh --workload nl-scale --seconds 3
	bash benchmark/run.sh --workload serve-zipf --seconds 5

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The allocation ceilings and the matcher pool's tests, without the race
# detector: under it sync.Pool drops a random share of what it is given
# and the instrumentation allocates, so race skips the pooled ones and
# only this step holds a search to what it returns and the pool to its
# cap. The understanding ceilings (a parse's 5 allocations, extraction's
# 3, building Q^S's 15, a name link's 2) and the load of the cinema test
# KB's GQAFRZ1 file (no graph mirror) run in both.
allocs:
	$(GO) test -run 'Allocs|TestPool' ./internal/nlp/ ./internal/core/ ./internal/linker/ ./internal/store/ .

# End-to-end serving smoke test: boot the gqa-serve handler on a random
# port, answer one question over HTTP, scrape /metrics, and assert the
# question counter and per-stage histograms moved. (The server lives in
# internal/serve; cmd/gqa-serve is the thin binary over it.)
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./internal/serve

# File-format smoke (tier-1), one format end to end through the real
# binaries: the K=1 file boots gqa-cli and answers a known question, part
# 0 of 2 boots gqa-shard, and gqa-shard refuses the K=1 file with a
# message that says what it was handed — so a format, loader or
# entry-point regression fails the gate, not just the unit tests.
snapshot-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/gqa-shard" ./cmd/gqa-shard && \
	$(GO) run ./cmd/gqa-gen frozen -o "$$tmp/kb.frz" && \
	$(GO) run ./cmd/gqa-gen frozen -shard 0/2 -o "$$tmp/p0" && \
	$(GO) run ./cmd/gqa-cli -frozen "$$tmp/kb.frz" "Who is the mayor of Berlin?" | grep -q "Klaus Wowereit" && \
	{ "$$tmp/gqa-shard" -part "$$tmp/p0" -addr 127.0.0.1:0 2>"$$tmp/shard.log" & pid=$$!; \
	  for i in $$(seq 50); do grep -q "listening on" "$$tmp/shard.log" && break; sleep 0.1; done; \
	  kill $$pid; wait $$pid 2>/dev/null; grep -q "listening on" "$$tmp/shard.log"; } && \
	{ ! "$$tmp/gqa-shard" -part "$$tmp/kb.frz" 2>"$$tmp/refused.log"; } && \
	grep -q "a K=1 snapshot, not a shard part" "$$tmp/refused.log" && \
	echo "snapshot-smoke: K=1 file answered, part 0/2 served, K=1 file refused as a part"

# Deterministic replay of the fuzz seed corpora (f.Add entries + any
# checked-in testdata): runs each fuzz target as a plain test, no engine.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/rdf/ ./internal/sparql/ ./internal/nlp/ ./internal/store/ ./internal/serve/ ./internal/core/ ./internal/linker/

# Short fuzz passes over the parser/evaluator targets (not part of tier1),
# the question parser against the parent's (whose attach kept children
# sorted as it went), the lemmatiser whose token → lemma map the linker's
# per-slot bound rests on, and Algorithm 2 over word IDs against its
# string-keyed reference (and Q^S against the parent's map-keyed build),
# the top-k result set against the parent's string-keyed one, the path
# walker against the parent's closure walk, and the linker's T-occurrence
# skip (and its mention tokeniser) against the parent's k-way merge.
# The nlp, core and linker targets are anchored: -fuzz must match exactly one
# target per run.
fuzz:
	$(GO) test -fuzz FuzzParseSPARQL -fuzztime 30s ./internal/sparql/
	$(GO) test -fuzz FuzzEvalBudget -fuzztime 30s ./internal/sparql/
	$(GO) test -fuzz FuzzParseNTriples -fuzztime 30s ./internal/rdf/
	$(GO) test -fuzz FuzzLoadFrozen -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzLoadShardPart -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzShardServerHandle -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzWriteAfterFreeze -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzRequestStringsStayJSON -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/nlp/
	$(GO) test -fuzz '^FuzzLemma$$' -fuzztime 30s ./internal/nlp/
	$(GO) test -fuzz '^FuzzFindEmbeddings$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzResultSet$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzFollowPath$$' -fuzztime 30s ./internal/core/
	$(GO) test -fuzz '^FuzzLink$$' -fuzztime 30s ./internal/linker/

# Go micro-benchmarks, for measuring while you work (among them the cold
# start pair, BenchmarkLoadFrozenKB/ntriples against /gqafrz1). A number
# that is quoted or gated comes from benchmark/, not from here.
bench:
	$(GO) test -bench . -benchmem ./...

# The size a deletion is gated on (CHANGES.md quotes all five per PR): Go
# lines that are not blank, not a comment line and not in a _test.go file,
# outside benchmark/ — the same count for the matcher alone — the number
# of metric series served, one per row of the readers ledger in
# internal/obs/lint_test.go (TestMetricLedger holds the two equal), the
# number of option fields, as the surface lint (TestNoTestOnlySurface)
# counts them while it holds each to a setter, and the store's read
# surface: the methods of store.View and of the reader beneath it
# (internal/store/view.go), and the shard-RPC opcodes in use
# (internal/store/shardrpc.go; a retired opcode's gap is not counted).
loc:
	@printf 'non-test Go code lines outside benchmark/: %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$$')"
	@printf 'internal/core/match.go: %s\n' "$$(grep -cvE '^[[:space:]]*(//.*)?$$' internal/core/match.go)"
	@printf 'metric series (readers ledger rows): %s\n' "$$(grep -cE '^[[:space:]]+"gqa_[a-z0-9_]+": ' internal/obs/lint_test.go)"
	@printf 'option fields (surface lint): %s\n' "$$($(GO) test -run '^TestNoTestOnlySurface$$' -v . | sed -n 's/.*option fields: //p')"
	@printf 'store surface: View %s, reader %s, shard opcodes %s\n' \
		"$$(sed -n '/^type View interface/,/^}/p' internal/store/view.go | grep -cE '^[[:space:]]+[A-Z][A-Za-z]*\(')" \
		"$$(sed -n '/^type reader interface/,/^}/p' internal/store/view.go | grep -cE '^[[:space:]]+[a-z][A-Za-z]*\(')" \
		"$$(sed -n '/^const (/,/^)/p' internal/store/shardrpc.go | grep -cE '^[[:space:]]+shrOp[A-Z]')"

# The code no test reaches (CHANGES.md quotes it beside loc): every
# package's tests run with coverage counted over the whole module, and the
# listing is each non-test function outside cmd/, examples/ and benchmark/
# that none of them executes (0.0 %). It is a listing to read, not a gate.
cover:
	@mkdir -p .bench_build
	@$(GO) test -coverpkg=./... -coverprofile=.bench_build/cover.out ./... >.bench_build/cover.log || { cat .bench_build/cover.log; exit 1; }
	@$(GO) tool cover -func=.bench_build/cover.out | grep -E '[[:space:]]0\.0%$$' | grep -vE '^gqa/(cmd|examples)/' | awk '{print $$1, $$2}'

# Flight-recorder smoke (tier-1): build the real gqa-serve binary, boot it
# with -flight-log, ask one question over HTTP, and assert the wide event
# lands in the JSONL log with the trace ID the response header carried.
flight-smoke:
	$(GO) test -run TestFlightSmokeBinary -v ./internal/serve

# Multi-process sharding smoke (tier-1): export 4 shard parts with
# gqa-gen, boot 4 real gqa-shard servers plus a gqa-serve
# coordinator with -shard-addrs, require one known answer over HTTP (the
# frozen reads crossing the process boundary), the gqa_rpc_* series on
# /metrics, and a clean SIGTERM shutdown of the whole topology.
shard-rpc-smoke:
	$(GO) test -run TestShardRPCSmokeBinary -v ./internal/serve

