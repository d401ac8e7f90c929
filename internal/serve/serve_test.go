package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"gqa"
)

// startServer boots a Server over the benchmark system on a random port
// and returns its base URL (and the server, for drain tests).
func startServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatalf("building benchmark system: %v", err)
	}
	return startServerWith(t, sys, cfg)
}

func startServerWith(t *testing.T, sys *gqa.System, cfg Config) (string, *Server) {
	t.Helper()
	srv := New(sys, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = http.Serve(ln, srv) }()
	return "http://" + ln.Addr().String(), srv
}

// TestServeSmoke is the end-to-end serving smoke test (the `make
// serve-smoke` target): start the server on a random port, answer one
// question over HTTP, scrape /metrics, and assert the question counter
// moved and the per-stage latency histograms populated.
func TestServeSmoke(t *testing.T) {
	base, _ := startServer(t, Config{Timeout: 30 * time.Second, MaxQuestion: 1024})

	questionsBefore := metricValue(t, base, "gqa_core_questions_total")
	admittedBefore := metricValue(t, base, "gqa_admission_admitted_total")

	body := get(t, base+"/answer?trace=1&q="+url.QueryEscape("Who is the mayor of Berlin?"))
	var resp struct {
		OK     bool            `json:"ok"`
		Labels []string        `json:"labels"`
		Trace  json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding /answer response %q: %v", body, err)
	}
	if !resp.OK || len(resp.Labels) == 0 {
		t.Fatalf("expected an answer over HTTP, got %s", body)
	}
	if !strings.Contains(string(resp.Trace), `"name":"core.match"`) {
		t.Errorf("embedded trace missing core.match span: %s", resp.Trace)
	}

	if after := metricValue(t, base, "gqa_core_questions_total"); after != questionsBefore+1 {
		t.Errorf("gqa_core_questions_total = %v after one question, want %v", after, questionsBefore+1)
	}
	if after := metricValue(t, base, "gqa_admission_admitted_total"); after < admittedBefore+1 {
		t.Errorf("gqa_admission_admitted_total = %v after one question, want >= %v", after, admittedBefore+1)
	}
	for _, stage := range []string{"parse", "understanding", "evaluation", "total"} {
		series := `gqa_core_stage_seconds_count{stage="` + stage + `"}`
		if v := metricValue(t, base, series); v < 1 {
			t.Errorf("%s = %v, want >= 1", series, v)
		}
	}

	latest := get(t, base+"/debug/trace/latest")
	if !strings.Contains(latest, `"trace":"answer"`) || !strings.Contains(latest, "mayor of Berlin") {
		t.Errorf("/debug/trace/latest missing the answered question: %s", latest)
	}

	// Health surfaces while serving: both green.
	for _, ep := range []string{"/healthz", "/readyz"} {
		if body := get(t, base+ep); !strings.Contains(body, "ok") {
			t.Errorf("%s = %q, want ok", ep, body)
		}
	}
}

// TestServeAggregation: a server over a system opened with the aggregation
// extension, as gqa-serve -aggregate opens it, answers a superlative: the
// facade registers the superlatives, not each binary.
func TestServeAggregation(t *testing.T) {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{EnableAggregation: true})
	if err != nil {
		t.Fatalf("building benchmark system: %v", err)
	}
	base, _ := startServerWith(t, sys, Config{})
	body := get(t, base+"/answer?q="+url.QueryEscape("Who is the youngest player in the Premier League?"))
	var resp struct {
		Labels  []string `json:"labels"`
		Failure string   `json:"failure"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decoding /answer response %q: %v", body, err)
	}
	if len(resp.Labels) != 1 || resp.Labels[0] != "Theo Walcott" {
		t.Fatalf("served youngest player = %q (failure %q), want [Theo Walcott]", resp.Labels, resp.Failure)
	}
}

// TestServeAnswerBadRequests: missing and oversized questions are both
// rejected with 400 and a JSON error body, before any pipeline work.
func TestServeAnswerBadRequests(t *testing.T) {
	base, _ := startServer(t, Config{MaxQuestion: 64})

	for _, tc := range []struct {
		name, url string
	}{
		{"missing q", base + "/answer"},
		{"oversized q", base + "/answer?q=" + url.QueryEscape(strings.Repeat("w", 65))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatalf("GET: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want %d", resp.StatusCode, http.StatusBadRequest)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body.Error == "" {
				t.Error("error body missing the error field")
			}
		})
	}

	// A question at exactly the cap still goes through the pipeline.
	ok := get(t, base+"/answer?q="+url.QueryEscape(strings.Repeat("w", 64)))
	if !strings.Contains(ok, `"ok":`) {
		t.Errorf("at-cap question should reach the pipeline, got %s", ok)
	}
}

// TestMethodNotAllowed: every endpoint refuses non-GET with 405 and an
// Allow header instead of a confusing 404 or 400.
func TestMethodNotAllowed(t *testing.T) {
	base, _ := startServer(t, Config{})
	for _, ep := range []string{"/answer", "/metrics", "/debug/trace/latest", "/healthz", "/readyz"} {
		resp, err := http.Post(base+ep, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want %d", ep, resp.StatusCode, http.StatusMethodNotAllowed)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", ep, allow)
		}
	}
}

// TestStatusFor pins the error→status contract: 500 only for contained
// pipeline panics, 504 for deadline expiry, no response for a gone
// client, 400 for everything else.
func TestStatusFor(t *testing.T) {
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	expired, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel2()
	<-expired.Done()

	for _, tc := range []struct {
		name string
		ctx  context.Context
		err  error
		want int
	}{
		{"pipeline panic", bg, &gqa.PipelineError{Stage: "answer", Value: "boom"}, http.StatusInternalServerError},
		{"wrapped pipeline panic", bg, fmt.Errorf("wrap: %w", &gqa.PipelineError{}), http.StatusInternalServerError},
		{"deadline error", bg, context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"deadline on ctx", expired, errors.New("search aborted"), http.StatusGatewayTimeout},
		{"client gone", canceled, errors.New("search aborted"), statusNoWrite},
		{"cancel error", bg, context.Canceled, statusNoWrite},
		{"bad input", bg, errors.New("empty question"), http.StatusBadRequest},
	} {
		if got := statusFor(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: statusFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestReadyzDrain: BeginDrain flips /readyz to 503 (while /healthz stays
// 200 — the process is alive, just not accepting) and new questions are
// shed with 429 "draining".
func TestReadyzDrain(t *testing.T) {
	base, srv := startServer(t, Config{})

	if body := get(t, base+"/readyz"); !strings.Contains(body, "ok") {
		t.Fatalf("/readyz before drain = %q, want ok", body)
	}
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if body := get(t, base+"/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz during drain = %q, want ok (liveness is not readiness)", body)
	}

	resp, err = http.Get(base + "/answer?q=hello")
	if err != nil {
		t.Fatalf("GET /answer during drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/answer during drain: status %d, want 429", resp.StatusCode)
	}
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("drain rejection body: %v", err)
	}
	if body.Reason != "draining" {
		t.Errorf("drain rejection reason = %q, want draining", body.Reason)
	}
}

func get(t *testing.T, u string) string {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, b)
	}
	return string(b)
}

// metricValue scrapes /metrics and returns the value of the named series
// (full series name including any label set), or 0 when absent. Given a
// bare family name it returns the sum over the family's label sets.
func metricValue(t *testing.T, base, series string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(get(t, base+"/metrics"), "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
