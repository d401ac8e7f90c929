#!/usr/bin/env bash
# Builds the binaries, the examples and the benchmark harness with coverage
# counted over the whole module, runs the set of real runs below with
# GOCOVERDIR set, and writes the merged counters as a text profile to
# .bench_build/reach/reach.out (make reach lists and checks it). No Go test
# runs here, so no test's in-process call counts as reach.
#
# The runs: gqa-bench -exp all; each benchmark/ workload for a short
# measured run, then all five traced; gqa-gen kb, frozen and frozen -shard
# s/4, and gqa-mine -builtin; gqa-cli on the frozen file with the mined
# dictionary and -explain, on the N-Triples file with -trace, and a sparql
# line; four gqa-shard servers behind a gqa-serve -shard-addrs
# coordinator; gqa-serve -snapshot -flight-log -pprof with every endpoint
# hit and one question refused at admission; and the five examples.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/reach"
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/work"
cd "$root"
cover=(-cover -coverpkg=gqa/...)
go build "${cover[@]}" -o "$out/bin/" ./cmd/...
mkdir -p "$out/bin/examples"
go build "${cover[@]}" -o "$out/bin/examples/" ./examples/...
(cd benchmark && GOFLAGS=-mod=mod GOWORK=off go build "${cover[@]}" -o "$out/bin/gqa-benchmark" .)

export GOCOVERDIR="$out/cov"
bin="$out/bin" w="$out/work"
pids=()
trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done' EXIT

# Waits for a log line "listening on …" and prints the address after it.
listening() {
	for _ in $(seq 100); do
		a=$(sed -n 's/.*listening on \(http:\/\/\)\{0,1\}//p' "$1" | head -1)
		[ -n "$a" ] && { echo "$a"; return; }
		sleep 0.1
	done
	echo "reach: no listening line in $1" >&2
	cat "$1" >&2
	return 1
}

# Stops a server with SIGTERM and waits: its counters are written on exit.
stop() {
	kill -TERM "$1"
	wait "$1"
}

"$bin/gqa-bench" -exp all >"$w/bench.txt"
for wl in qald match-local match-rpc nl-scale; do
	"$bin/gqa-benchmark" -workload "$wl" -seconds 3 >"$w/$wl.txt"
done
"$bin/gqa-benchmark" -workload serve-zipf -seconds 5 >"$w/serve-zipf.txt"
"$bin/gqa-benchmark" -workload all -seconds 1 -trace 1 >"$w/traced.txt"

"$bin/gqa-gen" kb -o "$w/kb.nt"
"$bin/gqa-gen" frozen -o "$w/kb.frz"
for s in 0 1 2 3; do "$bin/gqa-gen" frozen -shard "$s/4" -o "$w/p$s"; done
"$bin/gqa-mine" -builtin -o "$w/dict.tsv" 2>"$w/mine.log"

q="Who was married to an actor that played in Philadelphia?"
"$bin/gqa-cli" -frozen "$w/kb.frz" -dict "$w/dict.tsv" -explain "$q" >"$w/cli1.txt"
"$bin/gqa-cli" -graph "$w/kb.nt" -trace "Who is the mayor of Berlin?" >"$w/cli2.txt"
echo 'sparql SELECT ?f WHERE { ?f dbo:starring dbr:Antonio_Banderas }' | "$bin/gqa-cli" >"$w/cli3.txt"

addrs=()
for s in 0 1 2 3; do
	"$bin/gqa-shard" -part "$w/p$s" 2>"$w/shard$s.log" &
	pids+=($!)
done
for s in 0 1 2 3; do addrs+=("$(listening "$w/shard$s.log")"); done
"$bin/gqa-serve" -addr 127.0.0.1:0 -shard-addrs "$(IFS=,; echo "${addrs[*]}")" 2>"$w/coord.log" &
coord=$!
pids+=($coord)
a=$(listening "$w/coord.log")
curl -fsS "http://$a/answer?q=Who+is+the+mayor+of+Berlin%3F" >"$w/coord.json"
stop "$coord"
for p in "${pids[@]:0:4}"; do stop "$p"; done
pids=()

# No file at -snapshot yet: the server builds from source and saves one.
# A client's second question inside its rate is refused (429). The server
# stays up past the recorder's first 10 s tick, so the SLO and runtime
# gauges are computed once before the last scrape.
"$bin/gqa-serve" -addr 127.0.0.1:0 -snapshot "$w/serve.frz" -flight-log "$w/flight.jsonl" -pprof \
	-client-qps 0.1 -client-burst 1 2>"$w/serve.log" &
srv=$!
pids+=($srv)
start=$SECONDS
a=$(listening "$w/serve.log")
curl -fsS -H 'X-Client: a' "http://$a/answer?q=Who+is+the+mayor+of+Berlin%3F" >/dev/null
test "$(curl -sS -o /dev/null -w '%{http_code}' -H 'X-Client: a' "http://$a/answer?q=Who+is+the+mayor+of+Berlin%3F")" = 429
curl -fsS -H 'X-Client: b' "http://$a/answer?trace=1&q=Who+was+married+to+an+actor+that+played+in+Philadelphia%3F" >"$w/traced.json"
id=$(sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$w/traced.json")
for path in debug/trace/latest debug/flight/slowest "debug/flight/trace/$id" healthz readyz debug/pprof/ debug/pprof/cmdline debug/pprof/symbol; do
	curl -fsS "http://$a/$path" >/dev/null
done
curl -fsS "http://$a/debug/pprof/profile?seconds=1" >/dev/null
curl -fsS "http://$a/debug/pprof/trace?seconds=1" >/dev/null
if [ $((start + 11 - SECONDS)) -gt 0 ]; then sleep $((start + 11 - SECONDS)); fi
curl -fsS "http://$a/debug/flight/slo" >/dev/null
curl -fsS "http://$a/metrics" >/dev/null
stop "$srv"
pids=()

for e in "$bin"/examples/*; do "$e" >"$w/$(basename "$e").txt"; done

# benchmark/ is a module of its own: its main package is dropped here, so
# that go tool cover resolves every file of the profile inside this module.
go tool covdata textfmt -i="$GOCOVERDIR" -o="$out/all.out"
grep -v '^gqa/benchmark/' "$out/all.out" >"$out/reach.out"
