package flight

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"gqa/internal/obs"
)

// traceStore is the tail sampler: every finished request passes through
// once, and three bounded retention classes decide what survives.
//
//   - recent: a fixed-size ring of the last N requests, whatever they
//     were — the short-term "what just happened" window.
//   - kept: a fixed-size ring of every error/rejected/shed/degraded
//     request — the traces an operator must never lose to luck.
//   - slow: the K slowest successful requests by latency — the tail that
//     p99 graphs point at but ordinary sampling almost never catches.
//
// A record may be held by several classes at once; it stays resolvable by
// trace ID until the last class lets go. All bounds are fixed at
// construction, so memory is bounded no matter the request rate.
type traceStore struct {
	mu   sync.Mutex
	byID map[string]*record

	recent    []*record // ring
	recentPos int
	kept      []*record // ring of interesting (error/shed/degraded)
	keptPos   int
	slow      []*record // slowest successes, ascending by latency, ≤ slowK
	slowK     int
}

type record struct {
	ev   *Event
	tr   *obs.Trace
	lat  time.Duration
	refs int
}

func newTraceStore(ringSize, slowK int) *traceStore {
	return &traceStore{
		byID:   make(map[string]*record),
		recent: make([]*record, ringSize),
		kept:   make([]*record, ringSize),
		slowK:  slowK,
	}
}

func (s *traceStore) add(ev *Event, tr *obs.Trace, lat time.Duration) {
	rec := &record{ev: ev, tr: tr, lat: lat}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Later requests win ID collisions (IDs are random; a collision means
	// a client resent one, and the fresher record is the useful one). The
	// older record stays in the rings until they release it, and release
	// leaves the ID to whichever record holds it now.
	s.byID[ev.TraceID] = rec
	s.ringPut(s.recent, &s.recentPos, rec)
	if interesting(ev) {
		s.ringPut(s.kept, &s.keptPos, rec)
	} else {
		s.slowPut(rec)
	}
}

// ringPut inserts rec into the ring, releasing whatever it displaces.
func (s *traceStore) ringPut(ring []*record, pos *int, rec *record) {
	if len(ring) == 0 {
		return
	}
	if old := ring[*pos]; old != nil {
		s.release(old)
	}
	rec.refs++
	ring[*pos] = rec
	*pos = (*pos + 1) % len(ring)
}

// slowPut admits rec to the slowest-successes set iff it beats the current
// K-th slowest (or the set is not full yet).
func (s *traceStore) slowPut(rec *record) {
	if s.slowK <= 0 {
		return
	}
	if len(s.slow) >= s.slowK {
		if rec.lat <= s.slow[0].lat {
			return
		}
		s.release(s.slow[0])
		s.slow = s.slow[1:]
	}
	i := sort.Search(len(s.slow), func(i int) bool { return s.slow[i].lat >= rec.lat })
	s.slow = append(s.slow, nil)
	copy(s.slow[i+1:], s.slow[i:])
	s.slow[i] = rec
	rec.refs++
}

// release drops one retention reference; the record leaves the ID index
// when nothing holds it anymore.
func (s *traceStore) release(rec *record) {
	rec.refs--
	if rec.refs <= 0 {
		if cur, ok := s.byID[rec.ev.TraceID]; ok && cur == rec {
			delete(s.byID, rec.ev.TraceID)
		}
	}
}

// retained returns everything /debug/flight/slowest serves: the K slowest
// successes plus every kept error/shed/degraded record, deduplicated,
// sorted by latency descending.
func (s *traceStore) retained() []*record {
	s.mu.Lock()
	seen := make(map[*record]bool, len(s.slow)+len(s.kept))
	out := make([]*record, 0, len(s.slow)+len(s.kept))
	for _, rec := range s.slow {
		if !seen[rec] {
			seen[rec] = true
			out = append(out, rec)
		}
	}
	for _, rec := range s.kept {
		if rec != nil && !seen[rec] {
			seen[rec] = true
			out = append(out, rec)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].lat > out[j].lat })
	return out
}

func (s *traceStore) get(id string) *record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// ------------------------------------------------------------- JSON views

// SlowestJSON renders the retained set for /debug/flight/slowest:
// {"retained": [<event>, …]} sorted by latency descending, the slowest
// successes and every kept error/shed/degraded request together.
func (r *Recorder) SlowestJSON() []byte {
	if r == nil {
		return []byte("null")
	}
	recs := r.store.retained()
	events := make([]*Event, len(recs))
	for i, rec := range recs {
		events[i] = rec.ev
	}
	out, err := json.Marshal(map[string]any{"retained": events})
	if err != nil {
		return []byte("null")
	}
	return out
}

// TraceJSON renders one retained request for /debug/flight/trace/<id>:
// {"event": {…}, "trace": {…}}. ok is false when the ID is unknown or
// already evicted.
func (r *Recorder) TraceJSON(id string) (out []byte, ok bool) {
	if r == nil {
		return nil, false
	}
	rec := r.store.get(id)
	if rec == nil {
		return nil, false
	}
	evJSON, err := json.Marshal(rec.ev)
	if err != nil {
		return nil, false
	}
	var b bytes.Buffer
	b.WriteString(`{"event":`)
	b.Write(evJSON)
	b.WriteString(`,"trace":`)
	b.WriteString(rec.tr.JSON())
	b.WriteString(`}`)
	return b.Bytes(), true
}

// SLOJSON renders the SLO tracker's live status for /debug/flight/slo.
func (r *Recorder) SLOJSON() []byte {
	if r == nil {
		return []byte("null")
	}
	out, err := json.Marshal(r.slo.status())
	if err != nil {
		return []byte("null")
	}
	return out
}
