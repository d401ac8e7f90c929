package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// toySizes keep every workload's shape at a size that sets up and verifies
// in well under a second. The cinema KBs stay at 240 films: much smaller
// ones are dense enough for the matcher's match cap to cut the gold short.
var toySizes = sizes{
	nlPeople: 600, nlMix: nlMix{married: 4, lives: 4, peopleIn: 2},
	films: 240, cast: 4, mix: cinemaMix{spouse: 2, castOf: 3, director: 2},
	rpcFilms: 240, rpcCast: 4, rpcMix: cinemaMix{spouse: 3, castOf: 1, director: 2},
	zipfPeople: 600, zipfKeys: 24, zipfCache: 6, zipfRate: 200,
	zipfLatencyAsks: 60, zipfThroughputAsks: 120,
}

// toySeconds is enough for one pair of rounds, which marks the run invalid
// (too few rounds) but still yields every metric.
const toySeconds = 0.35

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func declaredOf(specs []metricSpec) []declared {
	out := make([]declared, len(specs))
	for i, s := range specs {
		out[i] = declared{s.name, s.unit, s.better, s.bound}
	}
	return out
}

// TestDeclarationMatches holds BENCHMARK.json and spec.go to each other:
// the same workloads, and the same metrics with the same unit, direction
// and bound, all with well-formed names.
func TestDeclarationMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var workloads []string
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" {
			t.Errorf("workload %q: bad name or empty why", w.Name)
		}
	}
	if got, want := toJSON(workloads), toJSON(workloadNames); got != want {
		t.Errorf("workloads declared %s, benchmark runs %s", got, want)
	}
	if got, want := toJSON(doc.EndToEnd), toJSON(declaredOf(endToEnd)); got != want {
		t.Errorf("end_to_end declared\n%s\nbenchmark emits\n%s", got, want)
	}
	if got, want := toJSON(doc.PerLayer), toJSON(declaredOf(perLayer)); got != want {
		t.Errorf("per_layer declared\n%s\nbenchmark emits\n%s", got, want)
	}
	seen := make(map[string]bool)
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.name) || seen[s.name] {
			t.Errorf("metric name %q is malformed or used twice", s.name)
		}
		seen[s.name] = true
	}
}

func toJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// emitted lists the metric names of a run's result line.
func emitted(t *testing.T, rep *report) []string {
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(resultJSON(rep), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("result line reports correct=%v attempted=%d failed=%v", line.Correct, line.Attempted, line.Failed)
	}
	var names []string
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedNames(specs []metricSpec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

// TestEveryWorkloadEmitsEveryMetric runs both kinds of run on every
// workload at toy size: the verification pass must hold, the result line
// must carry exactly the declared metrics, the recorded spans must nest,
// and the replayed stages must add up to about the facade call.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rep, err := runUntraced(ctx, w, 7, toySeconds, toySizes)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := toJSON(emitted(t, rep)), toJSON(sortedNames(endToEnd)); got != want {
				t.Errorf("measured run emitted %s, want %s", got, want)
			}
			for _, s := range endToEnd {
				if rep.metrics[s.name] <= 0 {
					t.Errorf("%s = %v, an end-to-end metric is never 0", s.name, rep.metrics[s.name])
				}
			}
			for _, why := range rep.invalid {
				t.Logf("invalid at toy size (expected: too few rounds): %s", why)
			}

			rep, err = runTraced(ctx, w, 7, 4*toySeconds, toySizes)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := toJSON(emitted(t, rep)), toJSON(sortedNames(perLayer)); got != want {
				t.Errorf("traced run emitted %s, want %s", got, want)
			}
			checkNesting(t, rep.spans.spans)
			// Over HTTP the entry point is a round trip the replay has no
			// stage for; everywhere else the stages are the call.
			if r := rep.metrics["facade.stage_sum_ratio"]; w != wlServeZipf && (r < 0.5 || r > 1.3) {
				t.Errorf("facade.stage_sum_ratio = %.3f, the replayed stages should add up to about the facade call", r)
			}
		})
	}
}

// checkNesting asserts every span closed, starts no earlier than it ends,
// and lies inside its parent, which was opened before it.
func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d (%s) names a later span %d as parent", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Question != p.Question {
			t.Fatalf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}
