// Command benchmark is the one performance harness of the pipeline: five
// workloads, six end-to-end metrics, and a per-layer budget measured by
// replaying each question's stages from outside. See README.md.
//
//	benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE]
//	benchmark -selfcheck
//
// The last line of standard output is one JSON object holding the run's
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeed is the seed whose inputs are pinned in pins.go, and
// defaultSeconds the run length BENCHMARK.json declares as run_seconds.
const (
	defaultSeed    = 1
	defaultSeconds = 22
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures, in latency and throughput rounds taken in turn")
	trace := flag.Int("trace", 0, "1 runs the traced (per-layer) run in place of the measured one")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice, interleaved, and compare the pairs against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*workload == "") == !*selfcheck {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *selfcheck {
		os.Exit(runSelfcheck(ctx, *seed, *seconds))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	results := make(map[string]json.RawMessage)
	var last []byte
	code := 0
	for _, name := range names {
		rep, err := runOne(ctx, name, *seed, *seconds, *trace == 1, fullSizes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		printReport(rep)
		if rep.spans != nil && *traceOut != "" {
			path := *traceOut
			if len(names) > 1 {
				path = name + "." + path
			}
			if err := rep.spans.write(path, name, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("spans written to %s (%d spans)\n", path, len(rep.spans.spans))
		}
		if len(rep.invalid) > 0 {
			// No result line: an invalid run's numbers must not be used.
			fmt.Fprintf(os.Stderr, "benchmark: %s: invalid run: %s\n", name, strings.Join(rep.invalid, "; "))
			os.Exit(1)
		}
		last = resultJSON(rep)
		results[name] = last
		if rep.failed > 0 {
			code = 1
		}
	}
	if len(names) > 1 {
		last, _ = json.Marshal(results)
	}
	fmt.Println(string(last))
	os.Exit(code)
}

// runOne runs one workload, measured or traced, and checks the pinned
// input hash when the seed is the pinned one.
func runOne(ctx context.Context, workload string, seed int64, seconds float64, traced bool, sz sizes) (*report, error) {
	run := runUntraced
	if traced {
		run = runTraced
	}
	rep, err := run(ctx, workload, seed, seconds, sz)
	if err != nil {
		return nil, err
	}
	if pin := pinnedInputs[workload]; seed == defaultSeed && sz == fullSizes && rep.inputHash != pin {
		return nil, fmt.Errorf("%s: input_sha256 %s differs from the pinned %s: the generators outside benchmark/ changed the inputs; re-pin in pins.go and measure the baseline again",
			workload, rep.inputHash, pin)
	}
	return rep, nil
}

func specsOf(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  trace %t  GOMAXPROCS %d  nproc %d  %s\n",
		rep.workload, rep.seed, rep.traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	check := "checked against the pin"
	if rep.seed != defaultSeed {
		check = "not checked: only the default seed is pinned"
	}
	fmt.Printf("input_sha256 %s (%s)\n", rep.inputHash, check)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, spec := range specsOf(rep.traced) {
		fmt.Printf("%-34s %16.6f %s\n", spec.name, rep.metrics[spec.name], spec.unit)
	}
}

// resultJSON renders the run's result line.
func resultJSON(rep *report) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]value)}
	for _, spec := range specsOf(rep.traced) {
		out.Metrics[spec.name] = value{rep.metrics[spec.name], spec.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value is a finite float
	}
	return b
}

// runSelfcheck runs every workload twice in interleaved order (all five,
// then all five again), each run in a process of its own as a caller of the
// benchmark would start it, and prints each end-to-end metric's relative
// difference beside its bound. It returns the exit code: 1 when any pair
// disagrees by more than its bound.
func runSelfcheck(ctx context.Context, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var rounds [2]map[string]map[string]float64
	for r := range rounds {
		rounds[r] = make(map[string]map[string]float64)
		for _, name := range workloadNames {
			cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %v\n", name, r+1, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var result struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s round %d: reading the result line: %v\n", name, r+1, err)
				return 1
			}
			rounds[r][name] = make(map[string]float64)
			for metric, v := range result.Metrics {
				rounds[r][name][metric] = v.Value
			}
			fmt.Printf("%s round %d done\n", name, r+1)
		}
	}
	code := 0
	fmt.Printf("%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ by", "bound")
	for _, name := range workloadNames {
		for _, spec := range endToEnd {
			a, b := rounds[0][name][spec.name], rounds[1][name][spec.name]
			differ := math.Abs(b-a) / a // either order of the pair must agree
			flag := ""
			if differ > spec.bound {
				flag, code = "  OUTSIDE", 1
			}
			fmt.Printf("%-12s %-16s %14.6f %14.6f %8.2f%% %6.1f%%%s\n", name, spec.name, a, b, 100*differ, 100*spec.bound, flag)
		}
	}
	return code
}
