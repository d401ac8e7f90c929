// Metric lint and reader ledger. This lives in an external test package so
// it can import the serving layer (and, through it, the facade, the
// admission controller, the flight recorder and every instrumented package)
// without a cycle: the point is to walk the real Default registry after a
// request went all the way through, so any metric a production code path
// registers — at init or lazily — is subject to the naming convention and
// must have a reader.
package obs_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// readers is the closed ledger of served series: each one maps to the file
// (relative to the module root) that reads it — a benchmark/ file that
// reports it, or a test that asserts it. The SLO tracker's three window
// series are the one exception: flight/slo.go reads them back as the
// source of its rolling windows. A series without a reader is deleted, not
// listed.
var readers = map[string]string{
	"gqa_admission_admitted_total":     "benchmark/trace.go",
	"gqa_admission_clients":            "internal/admission/queuewait_test.go",
	"gqa_admission_inflight":           "internal/admission/admission_test.go",
	"gqa_admission_queue_depth":        "internal/admission/admission_test.go",
	"gqa_admission_queue_wait_seconds": "benchmark/trace.go",
	"gqa_admission_rejected_total":     "benchmark/trace.go",
	"gqa_admission_shed_total":         "benchmark/trace.go",
	"gqa_cache_bypass_total":           "cache_test.go",
	"gqa_cache_coalesced_total":        "benchmark/trace.go",
	"gqa_cache_entries":                "internal/qcache/gauge_test.go",
	"gqa_cache_evictions_total":        "benchmark/trace.go",
	"gqa_cache_hits_total":             "benchmark/trace.go",
	"gqa_cache_misses_total":           "benchmark/trace.go",
	"gqa_core_degraded_total":          "cache_test.go",
	"gqa_core_questions_total":         "internal/serve/serve_test.go",
	"gqa_core_stage_seconds":           "internal/serve/serve_test.go",
	"gqa_dict_followpath_total":        "benchmark/trace.go",
	"gqa_dict_word_probes_total":       "internal/core/relation_test.go",
	"gqa_flight_events_dropped_total":  "internal/flight/flight_test.go",
	"gqa_linker_candidates_total":      "benchmark/trace.go",
	"gqa_linker_link_seconds":          "internal/linker/linker_test.go",
	"gqa_linker_link_total":            "benchmark/trace.go",
	"gqa_rpc_batch_reads_total":        "internal/serve/shardrpc_test.go",
	"gqa_rpc_call_seconds":             "benchmark/trace.go",
	"gqa_rpc_calls_total":              "benchmark/trace.go",
	"gqa_rpc_errors_total":             "internal/serve/shardrpc_test.go",
	"gqa_rpc_read_hits_total":          "internal/serve/shardrpc_test.go",
	"gqa_rpc_reads_total":              "internal/serve/shardrpc_test.go",
	"gqa_rpc_retries_total":            "benchmark/trace.go",
	"gqa_runtime_goroutines":           "internal/flight/flight_test.go",
	"gqa_runtime_heap_bytes":           "internal/flight/flight_test.go",
	"gqa_slo_breaches_total":           "internal/flight/slo.go",
	"gqa_slo_burn_rate":                "internal/flight/flight_test.go",
	"gqa_slo_latency_seconds":          "internal/flight/flight_test.go",
	"gqa_slo_request_seconds":          "internal/flight/slo.go",
	"gqa_slo_requests_total":           "internal/flight/slo.go",
	"gqa_store_snapshot_build_seconds": "internal/store/frozen_test.go",
	"gqa_store_snapshot_builds_total":  "internal/store/frozen_test.go",
	"gqa_store_snapshot_bytes":         "benchmark/trace.go",
}

// servedExposition serves one recorded question (so lazily registered
// series exist too) and returns the Default registry's exposition.
func servedExposition(t *testing.T) string {
	t.Helper()
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatalf("building system: %v", err)
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
	return b.String()
}

// types returns the exposition's series names with their kinds, from its
// # TYPE lines.
func types(exposition string) map[string]string {
	kinds := map[string]string{}
	for _, line := range strings.Split(exposition, "\n") {
		if fields := strings.Fields(line); len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			kinds[fields[2]] = fields[3]
		}
	}
	return kinds
}

// TestMetricNamingConvention walks every # TYPE line of the served
// exposition and enforces:
//
//   - names match gqa_<pkg>_<name>(_<unit>)?(_total)? in snake_case;
//   - counters end in _total;
//   - histograms end in a unit (_seconds or _bytes);
//   - gauges never end in _total (they are not monotonic);
//
// and that the degradation reasons are pre-registered whole.
func TestMetricNamingConvention(t *testing.T) {
	exposition := servedExposition(t)
	for name, kind := range types(exposition) {
		if !metricNamePattern.MatchString(name) {
			t.Errorf("%s: name does not match gqa_<pkg>_<name> snake_case", name)
			continue
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

	// The degradation reasons are a closed label set, pre-registered whole:
	// a reason the pipeline can report without a series here would vanish
	// from the dashboards, and one nobody listed is a typo.
	var reasons []string
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, `gqa_core_degraded_total{reason="`); ok {
			reasons = append(reasons, rest[:strings.IndexByte(rest, '"')])
		}
	}
	want := []string{"canceled", "candidates", "deadline", "matches", "rows", "shard-unavailable", "steps"}
	if !slices.Equal(reasons, want) {
		t.Errorf("gqa_core_degraded_total reasons = %q, want exactly %q", reasons, want)
	}
}

// TestMetricLedger holds the served series and the readers ledger to each
// other: a served series the ledger lacks has no reader (delete it or name
// one), a ledger row the exposition lacks is a reader of a series that is
// gone or renamed (benchmark/ looks its series up get-or-create, so it
// would silently read a fresh zero), and a row whose file does not contain
// the series name names no reader at all.
func TestMetricLedger(t *testing.T) {
	served := types(servedExposition(t))
	for name := range served {
		if _, ok := readers[name]; !ok {
			t.Errorf("%s is served but has no row in the readers ledger", name)
		}
	}
	files := map[string]string{}
	for name, file := range readers {
		if _, ok := served[name]; !ok {
			t.Errorf("ledger row %s (read by %s) is missing from the exposition", name, file)
		}
		if !strings.HasPrefix(file, "benchmark/") && !strings.HasSuffix(file, "_test.go") && file != "internal/flight/slo.go" {
			t.Errorf("%s: reader %s is neither a benchmark/ file nor a test", name, file)
		}
		src, ok := files[file]
		if !ok {
			b, err := os.ReadFile(filepath.Join("..", "..", file))
			if err != nil {
				t.Errorf("%s: reader %v", name, err)
			}
			src = string(b)
			files[file] = src
		}
		if !strings.Contains(src, name) {
			t.Errorf("%s: %s does not read it (the name does not appear there)", name, file)
		}
	}
}
