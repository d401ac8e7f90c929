// Metric-naming lint. This lives in an external test package so it can
// import the serving layer (and, through it, the facade, the admission
// controller, the flight recorder and every instrumented package) without
// a cycle: the point is to walk the real Default registry after a request
// went all the way through, so any metric a production code path registers
// — at init or lazily — is subject to the naming convention.
package obs_test

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gqa"
	"gqa/internal/flight"
	"gqa/internal/obs"
	"gqa/internal/serve"
)

// metricNamePattern is the repo convention: gqa_<pkg>_<name>, snake_case,
// with an optional unit suffix and _total for counters.
var metricNamePattern = regexp.MustCompile(`^gqa_[a-z]+(_[a-z0-9]+)+$`)

// knownPackages pins the <pkg> segment so a typo ("gqa_chace_…") or an
// uncoordinated new prefix fails the lint until it is added here.
var knownPackages = map[string]bool{
	"admission": true,
	"cache":     true,
	"core":      true,
	"dict":      true,
	"flight":    true,
	"linker":    true,
	"nlp":       true,
	"rpc":       true,
	"runtime":   true,
	"slo":       true,
	"sparql":    true,
	"store":     true,
}

// TestMetricNamingConvention serves one recorded question (so lazily
// registered series exist too), then walks every # TYPE line of the
// Default registry's exposition and enforces:
//
//   - names match gqa_<pkg>_<name>(_<unit>)?(_total)? in snake_case,
//     with <pkg> from the known set;
//   - counters end in _total;
//   - histograms end in a unit (_seconds or _bytes);
//   - gauges never end in _total (they are not monotonic).
func TestMetricNamingConvention(t *testing.T) {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatalf("building benchmark system: %v", err)
	}
	rec, err := flight.New(flight.Config{})
	if err != nil {
		t.Fatalf("flight.New: %v", err)
	}
	defer rec.Close()
	resp := httptest.NewRecorder()
	serve.New(sys, serve.Config{Flight: rec}).ServeHTTP(resp,
		httptest.NewRequest(http.MethodGet, "/answer?q=Who+is+the+mayor+of+Berlin%3F", nil))
	if resp.Code != http.StatusOK {
		t.Fatalf("pipeline run: status %d: %s", resp.Code, resp.Body)
	}
	rec.Sync()

	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(b.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
			continue
		}
		name, kind := fields[2], fields[3]
		checked++
		if !metricNamePattern.MatchString(name) {
			t.Errorf("%s: name does not match gqa_<pkg>_<name> snake_case", name)
			continue
		}
		pkg := strings.SplitN(name, "_", 3)[1]
		if !knownPackages[pkg] {
			t.Errorf("%s: unknown package segment %q (typo, or add it to knownPackages)", name, pkg)
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("%s: counter must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
				t.Errorf("%s: histogram must end in a unit (_seconds or _bytes)", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("%s: gauge must not end in _total", name)
			}
		default:
			t.Errorf("%s: unexpected kind %q", name, kind)
		}
	}
	// Sanity: the walk saw the whole instrumented pipeline, not an empty
	// registry. Every package in the known set must have shown up.
	if checked < 30 {
		t.Fatalf("lint walked only %d metrics — pipeline run did not populate the registry?", checked)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE gqa_"); ok {
			seen[strings.SplitN(rest, "_", 2)[0]] = true
		}
	}
	for pkg := range knownPackages {
		if !seen[pkg] {
			t.Errorf("no metrics from package %q appeared in the exposition", pkg)
		}
	}

	// The sharded-store series are registered at package init (not lazily),
	// so they must be present — and linted — even on an unsharded run.
	// Likewise the cache bypass counter (bypasses vanished from hit-rate
	// math before it existed) and the shard-RPC client series (registered
	// by internal/store whether or not a remote view is connected).
	for _, name := range []string{
		"gqa_store_shard_freezes_total",
		"gqa_cache_bypass_total",
		"gqa_rpc_calls_total",
		"gqa_rpc_retries_total",
		"gqa_rpc_errors_total",
		"gqa_rpc_degraded_total",
		"gqa_rpc_reads_total",
		"gqa_rpc_read_hits_total",
		"gqa_rpc_batch_reads_total",
	} {
		if !strings.Contains(b.String(), "# TYPE "+name+" counter") {
			t.Errorf("metric %s missing from the exposition", name)
		}
	}

	// The degradation reasons are a closed label set, pre-registered whole:
	// a reason the pipeline can report without a series here would vanish
	// from the dashboards, and one nobody listed is a typo.
	var reasons []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, `gqa_core_degraded_total{reason="`); ok {
			reasons = append(reasons, rest[:strings.IndexByte(rest, '"')])
		}
	}
	want := []string{"canceled", "candidates", "deadline", "matches", "rows", "shard-unavailable", "steps"}
	if !slices.Equal(reasons, want) {
		t.Errorf("gqa_core_degraded_total reasons = %q, want exactly %q", reasons, want)
	}
}
