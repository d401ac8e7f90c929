package flight

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gqa/internal/obs"
)

// TestDisabledRecorderZeroAllocs pins the disabled path's cost at zero
// allocations, the same contract obs pins for a nil trace: a deployment
// without a flight recorder must not pay for one.
func TestDisabledRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	tr := obs.NewTrace("answer", "q")
	tr.SetID("deadbeefdeadbeef")
	tr.Finish()
	if n := testing.AllocsPerRun(1000, func() {
		if got := r.Record(Event{}, tr); got != "deadbeefdeadbeef" {
			t.Fatalf("nil Record = %q, want existing trace ID", got)
		}
	}); n != 0 {
		t.Errorf("nil Recorder.Record with trace: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if got := r.Record(Event{}, nil); got != "" {
			t.Fatalf("nil Record with nil trace = %q, want empty", got)
		}
	}); n != 0 {
		t.Errorf("nil Recorder.Record without trace: %v allocs/op, want 0", n)
	}
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if err := r.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// TestEventJSONRoundTrip: a logged line is valid JSON that decodes back
// into the same Event — strings no Go-syntax quoting would get right
// included — carries its time in UTC, and omits zero-valued optional
// fields.
func TestEventJSONRoundTrip(t *testing.T) {
	full := Event{
		Time:         time.Date(2026, 8, 8, 14, 34, 56, 789000000, time.FixedZone("CEST", 2*60*60)),
		TraceID:      "0123456789abcdef",
		Client:       "10.0.0.7\x01\u2028<tab\t>",
		QHash:        HashQuestion(`who "escaped"?`),
		Status:       "error",
		Failure:      "no-match",
		CacheOutcome: "miss",
		ShedTier:     2,
		Degraded:     "shed:tier2/steps",
		QueueWaitUs:  1500,
		TotalUs:      250000,
		Results:      3,
		Err:          `parse: unexpected "quote"`,
		RPCCalls:     52,
		RPCRetries:   2,
		RPCErrors:    1,
		RPCReads:     1100,
		RPCReadHits:  1040,
		Stages:       []Stage{{Name: "nlp.parse", Us: 120}, {Name: "core.match", Us: 2400}},
	}
	// Minimal event: optional fields are omitted from the line entirely.
	min := Event{Time: full.Time, TraceID: "id", Status: "ok", TotalUs: 10}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	rec, err := New(Config{Path: path, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(full, nil)
	rec.Record(min, nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2:\n%s", len(lines), data)
	}
	var got Event
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("logged event is not valid JSON: %v\n%s", err, lines[0])
	}
	if !strings.Contains(lines[0], `"ts":"2026-08-08T12:34:56.789Z"`) {
		t.Errorf("ts is not UTC RFC 3339: %s", lines[0])
	}
	full.Time = full.Time.UTC()
	if !reflect.DeepEqual(got, full) {
		t.Errorf("event round-trip mismatch:\n got %+v\nwant %+v", got, full)
	}
	for _, field := range []string{"client", "qhash", "failure", "cache", "shed_tier", "degraded", "queue_wait_us", "err",
		"rpc_calls", "rpc_retries", "rpc_errors", "rpc_reads", "rpc_read_hits", "stages"} {
		if strings.Contains(lines[1], `"`+field+`"`) {
			t.Errorf("minimal event carries optional field %q: %s", field, lines[1])
		}
	}
	if !json.Valid([]byte(lines[1])) {
		t.Fatalf("minimal event is not valid JSON: %s", lines[1])
	}
}

// TestLogRotationBounds: the JSONL log rotates at MaxBytes and never keeps
// more than MaxFiles files, and every retained line stays parseable.
func TestLogRotationBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	rec, err := New(Config{Path: path, MaxBytes: 256, MaxFiles: 3, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rec.Record(Event{TraceID: NewID(), Status: "ok", TotalUs: int64(1000 + i)}, nil)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := filepath.Glob(path + "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 3 {
		t.Fatalf("rotation kept %d files %v, want <= MaxFiles=3", len(names), names)
	}
	if _, err := os.Stat(path + ".3"); err == nil {
		t.Fatal("rotation left a file beyond MaxFiles")
	}
	lines := 0
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// A file may exceed MaxBytes only by the single line that tripped
		// rotation; with 256-byte cap and ~90-byte lines it never should.
		if int64(len(data)) > 256+256 {
			t.Errorf("%s is %d bytes, way past MaxBytes", name, len(data))
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s holds an unparseable line %q: %v", name, line, err)
			}
			if ev.TraceID == "" {
				t.Fatalf("%s holds an event with no trace ID: %s", name, line)
			}
			lines++
		}
	}
	// The active + rotated files hold the newest events; older ones were
	// dropped, never duplicated.
	if lines == 0 || lines > 40 {
		t.Fatalf("retained %d lines, want in (0, 40]", lines)
	}
}

// TestStoreRetention: the tail sampler keeps the K slowest successes and
// every interesting (error/shed/degraded) request within its ring bound, a
// record the recent ring alone holds resolves by ID until the ring rotates,
// and a record evicted from all retention classes stops resolving by ID.
func TestStoreRetention(t *testing.T) {
	s := newTraceStore(2, 2) // recent/kept rings of 2, top-2 slowest
	add := func(id string, lat time.Duration, ev Event) {
		ev.TraceID = id
		if ev.Status == "" {
			ev.Status = "ok"
		}
		s.add(&ev, nil, lat)
	}

	add("a", 10*time.Millisecond, Event{})
	add("b", 20*time.Millisecond, Event{})
	add("c", 30*time.Millisecond, Event{})
	// Slowest-2 is {b, c}; "a" also rotated out of the recent ring, so it
	// is fully released.
	if s.get("a") != nil {
		t.Error("fast success survived eviction from every retention class")
	}
	for _, id := range []string{"b", "c"} {
		if s.get(id) == nil {
			t.Errorf("slow success %q was evicted", id)
		}
	}
	// A fast success only the recent ring holds resolves by ID until the
	// ring rotates past it.
	add("d", 5*time.Millisecond, Event{})
	if s.get("d") == nil {
		t.Error("a record held by the recent ring alone does not resolve")
	}

	add("e1", 1*time.Millisecond, Event{Status: "error", Err: "boom"})
	add("e2", 2*time.Millisecond, Event{ShedTier: 1, Degraded: "shed:tier1"})
	add("e3", 3*time.Millisecond, Event{Status: "rejected:queue-full"})
	// The kept ring holds 2; e1 fell off it and off the recent ring.
	if s.get("e1") != nil {
		t.Error("oldest interesting record outlived the kept ring")
	}
	if s.get("d") != nil {
		t.Error("a fast success outlived the recent ring")
	}
	// b and c are no longer in the recent ring but the slow set still pins
	// them.
	for _, id := range []string{"b", "c", "e2", "e3"} {
		if s.get(id) == nil {
			t.Errorf("%q should still be retained", id)
		}
	}

	recs := s.retained()
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ev.TraceID)
	}
	// Sorted by latency descending: c(30) b(20) e3(3) e2(2).
	want := []string{"c", "b", "e3", "e2"}
	if len(ids) != len(want) {
		t.Fatalf("retained = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("retained = %v, want %v", ids, want)
		}
	}
}

// TestInteresting pins the unconditional-retention predicate.
func TestInteresting(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want bool
	}{
		{Event{Status: "ok"}, false},
		{Event{Status: "error"}, true},
		{Event{Status: "rejected:draining"}, true},
		{Event{Status: "ok", ShedTier: 1}, true},
		{Event{Status: "ok", Degraded: "deadline"}, true},
	} {
		if got := interesting(&tc.ev); got != tc.want {
			t.Errorf("interesting(%+v) = %v, want %v", tc.ev, got, tc.want)
		}
	}
	if !isRejected("rejected:queue-full") || isRejected("ok") || isRejected("error") {
		t.Error("isRejected misclassifies")
	}
}

// TestRecorderEndToEnd: Record assigns an ID, stamps it on the trace,
// derives stage durations from the span tree (dropping the cache.lookup
// wrapper), and the debug views serve the retained record back.
func TestRecorderEndToEnd(t *testing.T) {
	rec, err := New(Config{Slowest: 4, Recent: 8, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	tr := obs.NewTrace("answer", "who?")
	wrap := tr.Root().Child("cache.lookup")
	p := tr.Root().Child("nlp.parse")
	time.Sleep(time.Millisecond)
	p.Finish()
	m := tr.Root().Child("core.match")
	time.Sleep(time.Millisecond)
	// What a search over remote shards stamps (store.AnnotateSpan).
	m.SetInt("rpc_calls", 52)
	m.SetInt("rpc_reads", 1100)
	m.SetInt("rpc_read_hits", 1040)
	m.Finish()
	wrap.Finish()

	id := rec.Record(Event{Status: "ok", Results: 2}, tr)
	if len(id) != 16 {
		t.Fatalf("assigned ID %q, want 16 hex chars", id)
	}
	if tr.ID() != id {
		t.Fatalf("trace ID %q != returned ID %q", tr.ID(), id)
	}
	rec.Sync() // ingestion is async; wait for the worker

	out, ok := rec.TraceJSON(id)
	if !ok {
		t.Fatal("freshly recorded trace not resolvable by ID")
	}
	var doc struct {
		Event Event           `json:"event"`
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("TraceJSON is not valid JSON: %v\n%s", err, out)
	}
	if doc.Event.TraceID != id || doc.Event.Results != 2 {
		t.Errorf("event in TraceJSON = %+v", doc.Event)
	}
	if ev := doc.Event; ev.RPCCalls != 52 || ev.RPCReads != 1100 || ev.RPCReadHits != 1040 {
		t.Errorf("RPC telemetry not lifted from the core.match span: %+v", ev)
	}
	if !strings.Contains(string(doc.Trace), `"name":"nlp.parse"`) {
		t.Errorf("trace JSON missing span tree: %s", doc.Trace)
	}
	var stageNames []string
	var stageSum int64
	for _, st := range doc.Event.Stages {
		stageNames = append(stageNames, st.Name)
		stageSum += st.Us
	}
	if len(stageNames) != 2 || stageNames[0] != "nlp.parse" || stageNames[1] != "core.match" {
		t.Fatalf("stages = %v, want [nlp.parse core.match] (cache.lookup dropped)", stageNames)
	}
	if rootUs := doc.Event.TotalUs; stageSum > rootUs {
		t.Errorf("stage sum %dus exceeds total %dus", stageSum, rootUs)
	}

	slowest := rec.SlowestJSON()
	if !strings.Contains(string(slowest), id) {
		t.Errorf("/debug/flight/slowest payload missing the recorded ID: %s", slowest)
	}
	if _, ok := rec.TraceJSON("unknown"); ok {
		t.Error("unknown ID resolved")
	}
}

// TestSLOTracker: burn rate and rolling quantiles computed from windowed
// histogram deltas. The package metrics are process-global, so everything
// is asserted through deltas against the tracker's construction baseline.
func TestSLOTracker(t *testing.T) {
	// Before the first tick only the construction baseline exists, so every
	// window clamps to "since construction" — deterministic.
	tr := newSLOTracker(100*time.Millisecond, time.Minute)
	for i := 0; i < 6; i++ {
		tr.observe(50 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		tr.observe(200 * time.Millisecond)
	}
	st := tr.status()
	if st.ObjectiveMs != 100 || st.Target != 0.99 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if len(st.Burn) != 3 {
		t.Fatalf("got %d burn windows, want 3", len(st.Burn))
	}
	for _, w := range st.Burn {
		if w.Requests != 10 || w.Breaches != 4 {
			t.Errorf("window %s: %d/%d, want 4/10", w.Window, w.Breaches, w.Requests)
		}
		// 40%% of requests breach against a 1%% error budget: burn 40.
		if math.Abs(w.Rate-40) > 1e-9 {
			t.Errorf("window %s burn = %v, want 40", w.Window, w.Rate)
		}
	}
	// 50ms observations land in TimeBuckets (25ms, 50ms]; rank 5 of 10
	// interpolates to 25+25*(5/6) ≈ 45.83ms.
	if math.Abs(st.P50Ms-(25+25*5.0/6)) > 1e-6 {
		t.Errorf("p50 = %vms, want ≈45.83ms", st.P50Ms)
	}
	// 200ms observations land in (100ms, 250ms]; rank 9.5 interpolates to
	// 100+150*0.875 = 231.25ms.
	if math.Abs(st.P95Ms-231.25) > 1e-6 {
		t.Errorf("p95 = %vms, want 231.25ms", st.P95Ms)
	}
	if st.P99Ms < st.P95Ms || st.P50Ms > st.P95Ms {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", st.P50Ms, st.P95Ms, st.P99Ms)
	}

	// tick() publishes the same numbers to the gqa_slo_* gauges.
	tr.tick()
	if got := sloBurn["30m"].Value(); math.Abs(got-40) > 1e-9 {
		t.Errorf("gqa_slo_burn_rate{window=30m} = %v, want 40", got)
	}
	if got := sloQuantile["0.95"].Value(); math.Abs(got-0.23125) > 1e-9 {
		t.Errorf("gqa_slo_latency_seconds{quantile=0.95} = %v, want 0.23125", got)
	}
}

// TestRejectedSkipsSLO: rejected requests never ran the pipeline, so they
// must not count against the latency SLO (they would poison the quantiles
// with near-zero samples).
func TestRejectedSkipsSLO(t *testing.T) {
	rec, err := New(Config{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	before := sloRequestsTotal.Value()
	rec.Record(Event{Status: "rejected:queue-full", TotalUs: 5}, nil)
	rec.Sync()
	if got := sloRequestsTotal.Value(); got != before {
		t.Errorf("rejected request counted toward the SLO: %d -> %d", before, got)
	}
	rec.Record(Event{Status: "error", TotalUs: 5}, nil)
	rec.Sync()
	if got := sloRequestsTotal.Value(); got != before+1 {
		t.Errorf("errored request must count toward the SLO: %d -> %d", before, got)
	}
}

// TestDroppedEventsCounted: with the worker stuck in writeEvent (r.mu held),
// Record overflows the ingest queue without blocking, and every event that
// neither sits in the queue nor is in the worker's hands is counted in
// gqa_flight_events_dropped_total.
func TestDroppedEventsCounted(t *testing.T) {
	rec, err := New(Config{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	before := droppedTotal.Value()
	rec.mu.Lock()
	sent := cap(rec.jobs) + 2
	for i := 0; i < sent; i++ {
		rec.Record(Event{Status: "ok", TotalUs: 1}, nil)
	}
	dropped := droppedTotal.Value() - before
	queued := int64(len(rec.jobs))
	rec.mu.Unlock()
	if dropped < 1 {
		t.Fatalf("%d events into a %d-slot queue: no drop counted", sent, cap(rec.jobs))
	}
	// At most one event is in the worker's hands, blocked on r.mu.
	if inFlight := int64(sent) - queued - dropped; inFlight != 0 && inFlight != 1 {
		t.Errorf("sent %d = %d queued + %d dropped + %d in flight", sent, queued, dropped, inFlight)
	}
}

// TestRuntimeCollector: a collectRuntime pass publishes live process stats.
func TestRuntimeCollector(t *testing.T) {
	collectRuntime()
	if rtGoroutines.Value() <= 0 {
		t.Errorf("gqa_runtime_goroutines = %d, want > 0", rtGoroutines.Value())
	}
	if rtHeapBytes.Value() <= 0 {
		t.Errorf("gqa_runtime_heap_bytes = %d, want > 0", rtHeapBytes.Value())
	}
}

// TestIDsAndHashes: NewID yields unique 16-hex IDs; HashQuestion is stable
// and question-sensitive.
func TestIDsAndHashes(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q", id)
		}
		seen[id] = true
	}
	if HashQuestion("a") != HashQuestion("a") || HashQuestion("a") == HashQuestion("b") {
		t.Error("HashQuestion not a stable hash")
	}
	if len(HashQuestion("x")) != 16 {
		t.Errorf("HashQuestion length = %d, want 16", len(HashQuestion("x")))
	}
}
