// Package flight is the serving stack's flight recorder: the durable,
// queryable record of what every request did and why.
//
// Three instruments share one Recorder:
//
//   - A wide-event request log: one JSONL line per answered (or shed)
//     question carrying the trace ID, client key, question hash, per-stage
//     durations extracted from the request's obs.Trace, cache outcome,
//     shed tier, degraded reason, admission queue wait, result count, and
//     status — with bounded file rotation so the log can run forever.
//   - A tail-sampling trace store: a fixed-size recent ring plus top-K
//     by-latency retention that keeps every error/shed/degraded trace and
//     the K slowest successful ones, served by gqa-serve at
//     /debug/flight/slowest and /debug/flight/trace/<id>.
//   - A runtime collector and SLO tracker: gqa_runtime_* and gqa_slo_*
//     gauges published into the obs.Default registry on a ticker, with
//     rolling quantiles and multi-window burn rate at /debug/flight/slo.
//
// Like the rest of internal/obs, the disabled state is free: every method
// on a nil *Recorder is a no-op that performs zero allocations, so paths
// built without a recorder stay at their unrecorded cost.
package flight

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gqa/internal/obs"
)

// Config sizes a Recorder. The zero value is usable: no file log, default
// retention and SLO settings.
type Config struct {
	// Path is the wide-event JSONL log file ("" = no file; events still
	// feed the trace store and SLO tracker).
	Path string
	// MaxBytes rotates the log file when it would exceed this size
	// (default 8 MiB).
	MaxBytes int64
	// MaxFiles is the total number of log files kept, the active one
	// included (default 4: path, path.1, path.2, path.3).
	MaxFiles int
	// Slowest is K: how many of the slowest successful traces to retain
	// (default 32).
	Slowest int
	// Recent sizes the recent-trace ring and the error/shed/degraded
	// ring (default 256 each).
	Recent int
	// Objective is the per-request latency objective the SLO tracker
	// measures against (default 250ms); 99 % of requests must meet it
	// (sloTarget).
	Objective time.Duration
	// Interval is the runtime-collector / SLO tick cadence (default 10s).
	Interval time.Duration
}

func (c *Config) fill() {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = 4
	}
	if c.Slowest <= 0 {
		c.Slowest = 32
	}
	if c.Recent <= 0 {
		c.Recent = 256
	}
	if c.Objective <= 0 {
		c.Objective = 250 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
}

// Stage is one pipeline stage's duration inside a wide event.
type Stage struct {
	Name string `json:"name"`
	Us   int64  `json:"us"`
}

// Event is one wide event: everything worth knowing about one request on
// a single log line. Its struct tags are its one encoding — the JSONL log
// and the /debug/flight/* endpoints alike — and omit zero-valued optional
// fields.
type Event struct {
	Time         time.Time `json:"ts"`
	TraceID      string    `json:"trace_id"`
	Client       string    `json:"client,omitempty"`
	QHash        string    `json:"qhash,omitempty"`
	Status       string    `json:"status"` // "ok", "error", "rejected:<reason>"
	Failure      string    `json:"failure,omitempty"`
	CacheOutcome string    `json:"cache,omitempty"`
	ShedTier     int       `json:"shed_tier,omitempty"`
	Degraded     string    `json:"degraded,omitempty"`
	QueueWaitUs  int64     `json:"queue_wait_us,omitempty"`
	TotalUs      int64     `json:"total_us"`
	Results      int       `json:"results"`
	Err          string    `json:"err,omitempty"`
	// RPC telemetry from the core.match span when the store is served by
	// remote shard servers: frames attempted, retries after transient
	// transport errors, reads that failed past their retries and answered
	// empty (what a shard-unavailable answer is made of), and the
	// per-vertex reads those frames served — asked, and answered from the
	// request's read set without a frame. All zero (and omitted) for
	// in-process stores.
	RPCCalls    int64   `json:"rpc_calls,omitempty"`
	RPCRetries  int64   `json:"rpc_retries,omitempty"`
	RPCErrors   int64   `json:"rpc_errors,omitempty"`
	RPCReads    int64   `json:"rpc_reads,omitempty"`
	RPCReadHits int64   `json:"rpc_read_hits,omitempty"`
	Stages      []Stage `json:"stages,omitempty"`
}

// droppedTotal counts wide events discarded because the ingest queue was
// full — the recorder sheds its own load rather than slowing requests.
var droppedTotal = obs.DefaultCounter("gqa_flight_events_dropped_total",
	"wide events dropped because the recorder's ingest queue was full")

// Recorder is the flight recorder. Construct with New; a nil *Recorder is
// the disabled recorder (every method a zero-allocation no-op).
//
// Ingestion is asynchronous: Record only assigns the trace ID and enqueues
// the event; a single worker goroutine extracts stage durations, encodes
// and appends the JSONL line, and feeds the trace store and SLO tracker.
// The request path therefore pays one channel send, not a file-write
// syscall.
type Recorder struct {
	cfg   Config
	store *traceStore
	slo   *sloTracker

	mu   sync.Mutex // guards f, size (worker + Close)
	f    *os.File
	size int64

	jobs   chan job
	closed atomic.Bool
	stop   chan struct{}
	done   chan struct{}
}

// job is one unit of worker input: an event to ingest, or (when sync is
// set) a flush barrier the worker acknowledges by closing it.
type job struct {
	ev   *Event
	tr   *obs.Trace
	sync chan struct{}
}

// New builds a Recorder, opens (appending) the JSONL log when cfg.Path is
// set, and starts the runtime-collector/SLO ticker. Close releases both.
func New(cfg Config) (*Recorder, error) {
	cfg.fill()
	r := &Recorder{
		cfg:   cfg,
		store: newTraceStore(cfg.Recent, cfg.Slowest),
		slo:   newSLOTracker(cfg.Objective, cfg.Interval),
		jobs:  make(chan job, 4096),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if cfg.Path != "" {
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("flight: opening event log: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("flight: opening event log: %w", err)
		}
		r.f, r.size = f, st.Size()
	}
	collectRuntime()
	go r.run()
	return r, nil
}

// run is the worker goroutine: it drains the ingest queue and, on a
// ticker, refreshes runtime stats and SLO gauges.
func (r *Recorder) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			// Drain whatever was enqueued before the stop.
			for {
				select {
				case j := <-r.jobs:
					r.handle(j)
				default:
					return
				}
			}
		case j := <-r.jobs:
			r.handle(j)
		case <-t.C:
			collectRuntime()
			r.slo.tick()
		}
	}
}

// handle is the worker side of Record: stage extraction, SLO accounting,
// retention, and the JSONL append all happen here, off the request path.
func (r *Recorder) handle(j job) {
	if j.sync != nil {
		close(j.sync)
		return
	}
	ev, tr := j.ev, j.tr
	// Derivable fields are filled here, not on the request path: the
	// question hash from the trace's input, the cache outcome from the
	// cache.lookup span's attribute trail (last one wins — a coalesced
	// lookup records intermediate outcomes).
	if ev.QHash == "" && tr.Input() != "" {
		ev.QHash = HashQuestion(tr.Input())
	}
	if ev.CacheOutcome == "" {
		if outs := tr.FindAttrs("cache.lookup", "outcome"); len(outs) > 0 {
			ev.CacheOutcome = outs[len(outs)-1]
		}
	}
	if ev.RPCCalls == 0 {
		ev.RPCCalls = lastIntAttr(tr, "core.match", "rpc_calls")
		ev.RPCRetries = lastIntAttr(tr, "core.match", "rpc_retries")
		ev.RPCErrors = lastIntAttr(tr, "core.match", "rpc_errors")
		ev.RPCReads = lastIntAttr(tr, "core.match", "rpc_reads")
		ev.RPCReadHits = lastIntAttr(tr, "core.match", "rpc_read_hits")
	}
	if ev.Stages == nil && tr != nil {
		for _, st := range tr.Stages() {
			// cache.lookup wraps the whole compute: its duration would
			// double-count the stages it covers (the outcome is already the
			// event's cache field), so it is dropped and the remaining
			// stages sum to within the root span's duration.
			if st.Name == "cache.lookup" {
				continue
			}
			ev.Stages = append(ev.Stages, Stage{Name: st.Name, Us: st.Dur.Microseconds()})
		}
	}
	lat := time.Duration(ev.TotalUs) * time.Microsecond
	if lat <= 0 {
		lat = tr.Duration()
		ev.TotalUs = lat.Microseconds()
	}
	if !isRejected(ev.Status) {
		r.slo.observe(lat)
	}
	r.store.add(ev, tr, lat)
	r.writeEvent(ev)
}

// lastIntAttr returns the last value of attr on spans named span in tr,
// parsed as an integer, or 0 when absent or unparsable.
func lastIntAttr(tr *obs.Trace, span, attr string) int64 {
	vals := tr.FindAttrs(span, attr)
	if len(vals) == 0 {
		return 0
	}
	n, _ := strconv.ParseInt(vals[len(vals)-1], 10, 64)
	return n
}

// Sync blocks until every event enqueued before the call has been fully
// ingested (retained, SLO-counted, and flushed to the log). Close calls it;
// tests and shutdown paths may too.
func (r *Recorder) Sync() {
	if r == nil || r.closed.Load() {
		return
	}
	done := make(chan struct{})
	select {
	case r.jobs <- job{sync: done}:
		select {
		case <-done:
		case <-r.done: // worker exited mid-sync (concurrent Close)
		}
	case <-r.done:
	}
}

// Close flushes the ingest queue, stops the worker goroutine, and closes
// the log file.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if r.closed.Swap(true) {
		<-r.done
		return nil
	}
	// The flush barrier drains events already enqueued; the closed flag
	// above stops new ones. Sync refuses after closed, so barrier directly.
	done := make(chan struct{})
	select {
	case r.jobs <- job{sync: done}:
		select {
		case <-done:
		case <-r.done:
		}
	case <-r.done:
	}
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// Enabled reports whether the recorder records anything — the hot-path
// guard mirroring obs.Span.Enabled.
func (r *Recorder) Enabled() bool { return r != nil }

// Record ingests one wide event and its trace (tr may be nil), assigning
// a trace ID when the event carries none, and returns that ID. It
// finishes the trace's root span (idempotent) synchronously, then hands
// the event to the worker goroutine, which derives per-stage durations
// from the trace when the event has none, appends the JSONL line, and
// feeds the trace store and SLO tracker; Sync waits for that to land.
// Safe for concurrent use; a nil receiver returns tr's existing ID
// without touching anything.
func (r *Recorder) Record(ev Event, tr *obs.Trace) string {
	if r == nil {
		return tr.ID()
	}
	// The by-value copy into record is what keeps the nil path above
	// allocation-free: ev escapes to the heap in record (the store keeps a
	// pointer), and folding that body in here would force every caller —
	// disabled or not — to heap-allocate the argument.
	return r.record(ev, tr)
}

func (r *Recorder) record(ev Event, tr *obs.Trace) string {
	if ev.TraceID == "" {
		ev.TraceID = tr.ID()
	}
	if ev.TraceID == "" {
		ev.TraceID = NewID()
	}
	tr.SetID(ev.TraceID)
	tr.Finish()
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	ev.Time = ev.Time.UTC() // one zone on every surface, whatever the host's
	if r.closed.Load() {
		return ev.TraceID
	}
	// Hand everything else to the worker. The send never blocks: under an
	// ingest backlog the recorder sheds its own telemetry (counted) rather
	// than adding latency to the request that is being recorded.
	select {
	case r.jobs <- job{ev: &ev, tr: tr}:
	default:
		droppedTotal.Inc()
	}
	return ev.TraceID
}

func isRejected(status string) bool {
	return len(status) >= 8 && status[:8] == "rejected"
}

// interesting reports whether an event must be retained unconditionally:
// errors, rejections, sheds, and degraded answers.
func interesting(ev *Event) bool {
	return ev.Status != "ok" || ev.ShedTier > 0 || ev.Degraded != ""
}

// writeEvent appends one JSONL line, rotating the file first when the
// line would push it past MaxBytes.
func (r *Recorder) writeEvent(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return
	}
	// The log line is the event as the /debug/flight/* endpoints encode it.
	line, err := json.Marshal(ev)
	if err != nil {
		return // no Event value fails to encode
	}
	line = append(line, '\n')
	if r.size+int64(len(line)) > r.cfg.MaxBytes && r.size > 0 {
		r.rotateLocked()
	}
	n, err := r.f.Write(line)
	r.size += int64(n)
	if err != nil {
		// A dead log file must not take serving down with it: drop the
		// file, keep the in-memory instruments running.
		r.f.Close()
		r.f = nil
	}
}

// rotateLocked shifts path → path.1 → … → path.(MaxFiles-1), dropping the
// oldest, and reopens a fresh active file. Rotation failures degrade to
// truncating in place rather than growing without bound.
func (r *Recorder) rotateLocked() {
	r.f.Close()
	os.Remove(r.cfg.Path + "." + strconv.Itoa(r.cfg.MaxFiles-1))
	for i := r.cfg.MaxFiles - 1; i >= 2; i-- {
		os.Rename(r.cfg.Path+"."+strconv.Itoa(i-1), r.cfg.Path+"."+strconv.Itoa(i))
	}
	if r.cfg.MaxFiles > 1 {
		os.Rename(r.cfg.Path, r.cfg.Path+".1")
	}
	f, err := os.OpenFile(r.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		r.f = nil
		r.size = 0
		return
	}
	r.f, r.size = f, 0
}

// NewID returns a fresh 64-bit random trace ID as 16 hex characters.
// math/rand/v2's generator (OS-entropy seeded per process) is used rather
// than crypto/rand: IDs only need to be collision-unlikely, and this runs
// on every request — a getrandom syscall per ID is measurable against
// microsecond questions.
func NewID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

// HashQuestion returns the FNV-64a hash of the question as 16 hex
// characters — stable across restarts, safe to log where the raw question
// may not be.
func HashQuestion(q string) string {
	h := fnv.New64a()
	h.Write([]byte(q))
	var b [8]byte
	h.Sum(b[:0])
	return hex.EncodeToString(b[:])
}
