// Package serve implements the gqa-serve HTTP front end: the answering
// pipeline behind an overload-resilient admission layer, plus the
// observability and health surfaces. It lives outside cmd/gqa-serve so
// the benchmark (benchmark/, workload serve-zipf) and the test suite
// drive the exact server the binary ships.
//
// Request flow for /answer:
//
//  1. Validate the question (missing/oversized → 400, non-GET → 405).
//  2. Admit through internal/admission: a bounded in-flight gate with a
//     deadline-aware FIFO queue and per-client token buckets. Rejected
//     requests get a structured 429 with Retry-After — they never touch
//     the pipeline.
//  3. Answer under the admission tier's shed budget (gqa.Budget.Shed):
//     under pressure the effective step/candidate/timeout budget shrinks
//     in grades instead of the server tipping over. The tier is surfaced
//     in the X-Gqa-Shed-Tier header and the answer's degraded field.
//  4. Map failures honestly: 504 for deadline expiry, a logged no-write
//     for client disconnects, 500 only for *gqa.PipelineError, 400 for
//     unanswerable input.
//
// /healthz is pure liveness; /readyz flips to 503 once BeginDrain is
// called so load balancers stop routing while in-flight questions finish.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"gqa"
	"gqa/internal/admission"
	"gqa/internal/flight"
	"gqa/internal/obs"
)

// Config assembles a Server. Zero fields take the documented defaults.
type Config struct {
	// Timeout is the wall-clock budget per question (0 = unlimited). It is
	// applied before admission so the deadline-aware queue can drop
	// requests that cannot finish in time.
	Timeout time.Duration
	// MaxQuestion caps accepted question length in bytes (0 = unlimited).
	MaxQuestion int
	// MaxInFlight / MaxQueue size the admission gate and its FIFO queue
	// (defaults per admission.New: 4×GOMAXPROCS and 8× that).
	MaxInFlight int
	MaxQueue    int
	// ClientQPS / ClientBurst bound each client's sustained admission rate
	// (0 disables per-client fairness limiting). Clients are keyed by the
	// X-Client header when present, else the remote host.
	ClientQPS   float64
	ClientBurst float64
	// Flight is the flight recorder /answer records into, one wide event
	// per answered or refused request, and /debug/flight/* reads back.
	// Nil leaves recording off and the endpoints 404.
	Flight *flight.Recorder
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiles expose memory contents and cost CPU to capture.
	Pprof bool
	// Logger receives the server's structured logs (client disconnects,
	// write failures), each carrying the request's trace ID. Nil means
	// slog.Default().
	Logger *slog.Logger
}

// Server is the HTTP front end: the engine, the admission controller, and
// the latest question trace. It implements http.Handler.
type Server struct {
	sys      *gqa.System
	cfg      Config
	adm      *admission.Controller
	log      *slog.Logger
	latest   atomic.Pointer[obs.Trace]
	draining atomic.Bool
	mux      *http.ServeMux
}

// New builds a Server over an assembled engine.
func New(sys *gqa.System, cfg Config) *Server {
	s := &Server{
		sys: sys,
		cfg: cfg,
		adm: admission.New(admission.Config{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
			ClientQPS:   cfg.ClientQPS,
			ClientBurst: cfg.ClientBurst,
		}),
		log: cfg.Logger,
		mux: http.NewServeMux(),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.mux.HandleFunc("/answer", s.get(s.handleAnswer))
	s.mux.HandleFunc("/metrics", s.get(s.handleMetrics))
	s.mux.HandleFunc("/debug/trace/latest", s.get(s.handleLatestTrace))
	s.mux.HandleFunc("/debug/flight/slowest", s.get(s.handleFlightSlowest))
	s.mux.HandleFunc("/debug/flight/slo", s.get(s.handleFlightSLO))
	s.mux.HandleFunc("/debug/flight/trace/", s.get(s.handleFlightTrace))
	s.mux.HandleFunc("/healthz", s.get(s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.get(s.handleReadyz))
	if cfg.Pprof {
		// Explicit registrations on our own mux — importing net/http/pprof
		// for its DefaultServeMux side effect would expose profiles even
		// with the flag off.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips /readyz to 503 and stops admitting: queued requests
// are rejected with 429 "draining", new ones refused. In-flight questions
// keep running; pair with http.Server.Shutdown to let them finish.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.adm.Drain()
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// get gates a handler to the GET method; anything else is 405 with an
// Allow header, on every endpoint.
func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			jsonError(w, http.StatusMethodNotAllowed, "method not allowed; use GET")
			return
		}
		h(w, r)
	}
}

// answerResponse is the JSON shape of /answer.
type answerResponse struct {
	Question string          `json:"question"`
	Labels   []string        `json:"labels,omitempty"`
	IRIs     []string        `json:"iris,omitempty"`
	Boolean  *bool           `json:"boolean,omitempty"`
	OK       bool            `json:"ok"`
	Failure  string          `json:"failure,omitempty"`
	Degraded string          `json:"degraded,omitempty"`
	ShedTier int             `json:"shed_tier,omitempty"`
	SPARQL   string          `json:"sparql,omitempty"`
	TotalMs  float64         `json:"total_ms"`
	TraceID  string          `json:"trace_id,omitempty"`
	Trace    json.RawMessage `json:"trace,omitempty"`
}

// jsonError writes a JSON error body so API clients never have to parse a
// plain-text status page.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}

// writeReject emits the structured 429 contract: Retry-After (seconds,
// rounded up, at least 1) plus a JSON body naming the rejection reason.
// The body's retry_after_ms is the header's value in milliseconds — the
// same floor applies, so a JSON-reading client under a light queue (raw
// hint 0 or sub-millisecond) backs off like a header-reading one instead
// of stampeding right back.
func writeReject(w http.ResponseWriter, rej *admission.RejectError) {
	secs := retryAfterSeconds(rej.RetryAfter)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"error":          "overloaded",
		"reason":         rej.Reason,
		"retry_after_ms": int64(secs) * 1000,
	})
}

// retryAfterSeconds renders a back-off hint for the Retry-After header:
// whole seconds, rounded up, minimum 1 (a 0 would invite an instant
// stampede from well-behaved clients).
func retryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int(math.Ceil(d.Seconds()))
}

// clientKey identifies the requester for per-client fairness: the
// X-Client header when the caller supplies one (proxies, load tests),
// else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// handleAnswer serves /answer, and is the one place a request is recorded:
// whatever became of it — answered, failed, or refused at admission — it
// leaves here as one wide event built from what the handler holds (client,
// queue wait, tier, trace, answer, error). Only a request that fails
// validation, before it has a trace ID, is not recorded.
func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query().Get("q")
	if q == "" {
		jsonError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	if s.cfg.MaxQuestion > 0 && len(q) > s.cfg.MaxQuestion {
		jsonError(w, http.StatusBadRequest,
			fmt.Sprintf("question exceeds %d bytes", s.cfg.MaxQuestion))
		return
	}
	// The trace ID is assigned before anything can go wrong, so even a
	// shed request is correlatable: header, wide event, and trace store
	// all carry the same ID.
	id := flight.NewID()
	w.Header().Set("X-Gqa-Trace-Id", id)
	client := clientKey(r)
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	tr := obs.NewTrace("answer", q)
	tr.SetID(id)
	ev := flight.Event{TraceID: id, Client: client, Status: "ok"}

	// Admission: a rejected request never consumes a pipeline slot.
	var (
		ans *gqa.Answer
		rej *admission.RejectError
	)
	ticket, err := s.adm.Admit(ctx, client)
	switch {
	case errors.As(err, &rej):
		// The finished trace makes the rejection resolvable by its ID at
		// /debug/flight/trace/<id> like any other retained request.
		tr.Root().SetStr("rejected", rej.Reason)
		ev.Status = "rejected:" + rej.Reason
		ev.TotalUs = time.Since(start).Microseconds()
	case err != nil:
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	default:
		defer ticket.Release()
		ev.ShedTier, ev.QueueWaitUs = ticket.Tier(), ticket.QueueWait().Microseconds()
		if ev.ShedTier > 0 {
			w.Header().Set("X-Gqa-Shed-Tier", fmt.Sprintf("%d", ev.ShedTier))
		}
		ev.Time = time.Now()
		ans, err = s.sys.AnswerShed(obs.WithTrace(ctx, tr), q, ev.ShedTier)
		ev.TotalUs = time.Since(ev.Time).Microseconds()
		if err != nil {
			ev.Status, ev.Err = "error", err.Error()
		} else {
			ev.Degraded, ev.Failure, ev.Results = ans.Degraded, ans.Failure, len(ans.Labels)
			if ans.Boolean != nil && ev.Results == 0 {
				ev.Results = 1
			}
		}
	}
	tr.Finish()
	s.cfg.Flight.Record(ev, tr)

	if rej != nil {
		writeReject(w, rej)
		return
	}
	if err != nil {
		status := statusFor(ctx, err)
		if status == statusNoWrite {
			s.log.Warn("client gone", "trace_id", id, "question", q, "err", err)
			return
		}
		jsonError(w, status, err.Error())
		return
	}
	ans.Trace = tr
	s.latest.Store(tr)
	resp := answerResponse{
		Question: q,
		Labels:   ans.Labels,
		IRIs:     ans.IRIs,
		Boolean:  ans.Boolean,
		OK:       ans.OK,
		Failure:  ans.Failure,
		Degraded: ans.Degraded,
		ShedTier: ans.ShedTier,
		SPARQL:   ans.SPARQL,
		TotalMs:  float64(ans.Total.Microseconds()) / 1000,
		TraceID:  ans.TraceID,
	}
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = json.RawMessage(ans.Trace.JSON())
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		s.log.Warn("writing /answer response", "trace_id", id, "err", err)
	}
}

// statusNoWrite marks "do not write a response": the client disconnected,
// so there is nobody to answer — log and move on.
const statusNoWrite = -1

// statusFor maps a pipeline error onto an honest HTTP status. Only a
// *gqa.PipelineError (a contained panic) is a 500; a deadline that
// expired mid-pipeline is 504, a client disconnect writes nothing, and
// everything else is malformed input (400).
func statusFor(ctx context.Context, err error) int {
	var pe *gqa.PipelineError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled) || ctx.Err() == context.Canceled:
		return statusNoWrite
	case errors.Is(err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded:
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.sys.WriteMetrics(w); err != nil {
		s.log.Warn("writing /metrics response", "err", err)
	}
}

func (s *Server) handleLatestTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Trace.JSON is nil-safe: before the first question this serves "null".
	if _, err := io.WriteString(w, s.latest.Load().JSON()); err != nil {
		s.log.Warn("writing /debug/trace/latest response", "err", err)
	}
}

// handleFlightSlowest serves the retained tail: the K slowest successful
// requests plus every kept error/shed/degraded one, latency-descending.
func (s *Server) handleFlightSlowest(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		jsonError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.cfg.Flight.SlowestJSON()) //nolint:errcheck
}

// handleFlightTrace resolves one retained request by trace ID:
// /debug/flight/trace/<id> → {"event": …, "trace": …}.
func (s *Server) handleFlightTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		jsonError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/flight/trace/")
	out, ok := s.cfg.Flight.TraceJSON(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "trace not retained (evicted or never recorded)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out) //nolint:errcheck
}

// handleFlightSLO serves the SLO tracker's live status: rolling
// quantiles and multi-window burn rate against the latency objective.
func (s *Server) handleFlightSLO(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		jsonError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.cfg.Flight.SLOJSON()) //nolint:errcheck
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n") //nolint:errcheck
}

// handleReadyz is readiness: 200 while accepting questions, 503 once the
// server is draining so load balancers stop routing here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}
