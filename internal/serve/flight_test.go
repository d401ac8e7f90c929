package serve

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gqa"
	"gqa/internal/faultpoint"
	"gqa/internal/flight"
)

// TestPprofEndpoints: the profiler is mounted only behind Config.Pprof —
// on by flag, absent (404) by default, so a production deployment never
// exposes it by accident.
func TestPprofEndpoints(t *testing.T) {
	on, _ := startServer(t, Config{Pprof: true})
	for _, ep := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with Pprof on: status %d, want 200", ep, resp.StatusCode)
		}
	}

	off, _ := startServer(t, Config{})
	for _, ep := range []string{"/debug/pprof/", "/debug/pprof/goroutine"} {
		resp, err := http.Get(off + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with Pprof off: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestFlightDebugDisabled: without a recorder, the flight endpoints say so
// with a 404 instead of an empty 200 that looks like "no slow requests".
func TestFlightDebugDisabled(t *testing.T) {
	base, _ := startServer(t, Config{})
	for _, ep := range []string{"/debug/flight/slowest", "/debug/flight/slo", "/debug/flight/trace/abc"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without a recorder: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestFlightRetentionEndToEnd drives the real HTTP server with a slowed
// matcher and a tiny admission gate, then asserts the flight recorder's
// retention contract: the slow request and a shed request are both in
// /debug/flight/slowest, both retrievable by the X-Gqa-Trace-Id the client
// saw, and the slow one's per-stage durations sum to within its total.
func TestFlightRetentionEndToEnd(t *testing.T) {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatalf("building benchmark system: %v", err)
	}
	// No cache (the zero Options): every request does (slowed) pipeline work.
	rec, err := flight.New(flight.Config{Slowest: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	base, _ := startServerWith(t, sys, Config{
		Timeout:     30 * time.Second,
		MaxInFlight: 1,
		MaxQueue:    2,
		Flight:      rec,
	})

	faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{Delay: 60 * time.Millisecond})
	defer faultpoint.Reset()

	// One lone request first: a slow success whose ID we follow end to end.
	resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
	if err != nil {
		t.Fatal(err)
	}
	slowID := resp.Header.Get("X-Gqa-Trace-Id")
	var answer struct {
		OK      bool    `json:"ok"`
		TraceID string  `json:"trace_id"`
		TotalMs float64 `json:"total_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !answer.OK {
		t.Fatal("the warm-up question failed")
	}
	if slowID == "" || answer.TraceID != slowID {
		t.Fatalf("trace ID header %q vs body %q, want one non-empty ID in both", slowID, answer.TraceID)
	}

	// Now saturate the 1+2 gate: at least one of 6 concurrent requests is
	// rejected, and its ID (from the same header) must also be retained.
	var mu sync.Mutex
	var shedIDs []string
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
			if err != nil {
				t.Errorf("concurrent request: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				mu.Lock()
				shedIDs = append(shedIDs, resp.Header.Get("X-Gqa-Trace-Id"))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(shedIDs) == 0 {
		t.Fatal("no request was shed against a 1+2 admission gate")
	}
	rec.Sync() // ingestion is async; wait for every event to land

	// Both the slow success and the rejection survive in the retained set.
	slowest := get(t, base+"/debug/flight/slowest")
	var retained struct {
		Retained []struct {
			TraceID string `json:"trace_id"`
			Status  string `json:"status"`
		} `json:"retained"`
	}
	if err := json.Unmarshal([]byte(slowest), &retained); err != nil {
		t.Fatalf("/debug/flight/slowest is not JSON: %v\n%s", err, slowest)
	}
	byID := map[string]string{}
	for _, ev := range retained.Retained {
		byID[ev.TraceID] = ev.Status
	}
	if status, ok := byID[slowID]; !ok || status != "ok" {
		t.Errorf("slow request %s not retained as ok (got %q): %s", slowID, status, slowest)
	}
	if status, ok := byID[shedIDs[0]]; !ok || !strings.HasPrefix(status, "rejected:") {
		t.Errorf("shed request %s not retained as rejected (got %q): %s", shedIDs[0], status, slowest)
	}

	// The slow request resolves by its client-visible ID, with per-stage
	// durations that sum to within the recorded total.
	doc := get(t, base+"/debug/flight/trace/"+slowID)
	var tracePage struct {
		Event struct {
			TraceID string `json:"trace_id"`
			TotalUs int64  `json:"total_us"`
			Stages  []struct {
				Name string `json:"name"`
				Us   int64  `json:"us"`
			} `json:"stages"`
		} `json:"event"`
		Trace struct {
			ID   string `json:"id"`
			Span struct {
				Us int64 `json:"us"`
			} `json:"span"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(doc), &tracePage); err != nil {
		t.Fatalf("/debug/flight/trace/%s is not JSON: %v\n%s", slowID, err, doc)
	}
	if tracePage.Event.TraceID != slowID || tracePage.Trace.ID != slowID {
		t.Errorf("trace page IDs = %q/%q, want %q", tracePage.Event.TraceID, tracePage.Trace.ID, slowID)
	}
	if len(tracePage.Event.Stages) == 0 {
		t.Fatalf("slow request retained without stage durations: %s", doc)
	}
	// One clock: the wide event's total is the answer's, to the microsecond.
	if got := int64(math.Round(answer.TotalMs * 1000)); tracePage.Event.TotalUs != got {
		t.Errorf("event total_us %d, want the body's total_ms %v × 1000", tracePage.Event.TotalUs, answer.TotalMs)
	}
	var stageSum int64
	for _, st := range tracePage.Event.Stages {
		stageSum += st.Us
	}
	if stageSum > tracePage.Event.TotalUs {
		t.Errorf("stage durations sum to %dus, beyond the event total %dus", stageSum, tracePage.Event.TotalUs)
	}
	if rootUs := tracePage.Trace.Span.Us; stageSum > rootUs {
		t.Errorf("stage durations sum to %dus, beyond the parent span's %dus", stageSum, rootUs)
	}
	// The faultpoint delay is visible in the recorded total.
	if tracePage.Event.TotalUs < (50 * time.Millisecond).Microseconds() {
		t.Errorf("slow request total = %dus, want >= 50ms (the injected delay)", tracePage.Event.TotalUs)
	}

	// The rejection resolves too — that is the point of assigning the ID
	// before admission.
	rejDoc := get(t, base+"/debug/flight/trace/"+shedIDs[0])
	if !strings.Contains(rejDoc, `"status":"rejected:`) {
		t.Errorf("rejected request's trace page missing rejected status: %s", rejDoc)
	}

	// /debug/flight/slo reports the traffic we just pushed.
	slo := get(t, base+"/debug/flight/slo")
	var sloDoc struct {
		Requests int64 `json:"requests"`
	}
	if err := json.Unmarshal([]byte(slo), &sloDoc); err != nil {
		t.Fatalf("/debug/flight/slo is not JSON: %v\n%s", err, slo)
	}
	if sloDoc.Requests < 1 {
		t.Errorf("SLO tracker saw %d requests, want >= 1", sloDoc.Requests)
	}

	// Unknown IDs are a clean 404.
	resp404, err := http.Get(base + "/debug/flight/trace/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace ID: status %d, want 404", resp404.StatusCode)
	}
}

// TestFlightSmokeBinary is the `make flight-smoke` tier-1 gate: build the
// real gqa-serve binary, boot it with -flight-log, answer one question
// over HTTP, and assert the wide event hit the JSONL log with the same
// trace ID the client saw in X-Gqa-Trace-Id.
func TestFlightSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gqa-serve")
	build := exec.Command("go", "build", "-o", bin, "gqa/cmd/gqa-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gqa-serve: %v\n%s", err, out)
	}

	logPath := filepath.Join(dir, "events.jsonl")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-flight-log", logPath, "-slo-ms", "100")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting gqa-serve: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The boot log line carries the resolved port.
	var base string
	scanner := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	lineCh := make(chan string, 16)
	go func() {
		for scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
	}()
scan:
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("gqa-serve exited before listening")
			}
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				base = "http://" + strings.TrimSpace(line[i+len("listening on http://"):])
				break scan
			}
		case <-deadline:
			t.Fatal("gqa-serve did not report listening within 30s")
		}
	}

	resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
	if err != nil {
		t.Fatalf("GET /answer against the real binary: %v", err)
	}
	id := resp.Header.Get("X-Gqa-Trace-Id")
	var answer struct {
		OK      bool   `json:"ok"`
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !answer.OK || id == "" || answer.TraceID != id {
		t.Fatalf("answer ok=%v header id=%q body id=%q, want an OK answer with matching IDs", answer.OK, id, answer.TraceID)
	}

	// Ingestion is asynchronous; the worker lands the line within moments
	// of the response. Poll briefly rather than racing it.
	var data []byte
	for wait := time.Now().Add(5 * time.Second); ; {
		data, err = os.ReadFile(logPath)
		if err == nil && strings.Contains(string(data), id) {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("trace ID %s never reached the flight log (read err %v):\n%s", id, err, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			TraceID string `json:"trace_id"`
			Status  string `json:"status"`
			TotalUs int64  `json:"total_us"`
			Stages  []struct {
				Name string `json:"name"`
			} `json:"stages"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("flight log line is not JSON: %v\n%s", err, line)
		}
		if ev.TraceID != id {
			continue
		}
		found = true
		if ev.Status != "ok" || ev.TotalUs <= 0 {
			t.Errorf("logged event = %+v, want ok with a positive total", ev)
		}
		if len(ev.Stages) == 0 {
			t.Errorf("logged event carries no stage durations: %s", line)
		}
	}
	if !found {
		t.Fatalf("no logged event carries the response's trace ID %s:\n%s", id, data)
	}
}
