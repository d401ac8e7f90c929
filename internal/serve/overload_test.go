package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"gqa"
	"gqa/internal/faultpoint"
)

// TestOverloadShedsWith429 drives the real HTTP server through a tiny
// admission gate with the matcher slowed by a faultpoint, on both sides of
// capacity, and asserts the admission contract end to end. Below capacity
// (offered concurrency <= MaxInFlight, the queue sized 8x like the
// default) nothing is shed, queued or degraded. Past it (12 requests at 1
// in-flight + 4 queued) the excess gets 429 queue-full with a Retry-After
// header. On both sides — the core admission guarantee — only a 200 ran
// the pipeline (gqa_core_questions_total moved by exactly the number of
// 200s).
func TestOverloadShedsWith429(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxInFlight int
		maxQueue    int
		n           int // concurrent copies of one question
	}{
		{name: "under-capacity", maxInFlight: 2, maxQueue: 16, n: 2},
		{name: "over-capacity", maxInFlight: 1, maxQueue: 4, n: 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
			if err != nil {
				t.Fatalf("building benchmark system: %v", err)
			}
			// No cache (the zero Options), so no coalescing: every admitted
			// copy does full pipeline work and the faultpoint delay bites.
			base, _ := startServerWith(t, sys, Config{
				Timeout:     30 * time.Second,
				MaxInFlight: tc.maxInFlight,
				MaxQueue:    tc.maxQueue,
			})

			// Each question now takes >= 200ms, so all n concurrent requests
			// arrive while the first still holds its slot — the outcome
			// split is deterministic, not a scheduling race.
			faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{Delay: 200 * time.Millisecond})
			defer faultpoint.Reset()

			questionsBefore := metricValue(t, base, "gqa_core_questions_total")
			waitedBefore := metricValue(t, base, "gqa_admission_queue_wait_seconds_count")
			shedBefore := metricValue(t, base, "gqa_admission_shed_total")
			rejectedBefore := metricValue(t, base, "gqa_admission_rejected_total")

			type outcome struct {
				status     int
				retryAfter string
				shedTier   string
				reason     string
				degraded   string
			}
			outcomes := make([]outcome, tc.n)
			var wg sync.WaitGroup
			for i := 0; i < tc.n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
					if err != nil {
						t.Errorf("request %d: %v", i, err)
						return
					}
					defer resp.Body.Close()
					var body struct {
						Reason   string `json:"reason"`
						Degraded string `json:"degraded"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
						t.Errorf("request %d: status %d body not JSON: %v", i, resp.StatusCode, err)
					}
					outcomes[i] = outcome{
						status:     resp.StatusCode,
						retryAfter: resp.Header.Get("Retry-After"),
						shedTier:   resp.Header.Get("X-Gqa-Shed-Tier"),
						reason:     body.Reason,
						degraded:   body.Degraded,
					}
				}(i)
			}
			wg.Wait()

			var ok, shed int
			for i, o := range outcomes {
				switch o.status {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					shed++
					if o.reason != "queue-full" {
						t.Errorf("request %d: 429 reason = %q, want queue-full", i, o.reason)
					}
					if o.retryAfter == "" || o.retryAfter == "0" {
						t.Errorf("request %d: 429 Retry-After = %q, want >= 1s", i, o.retryAfter)
					}
				default:
					t.Errorf("request %d: status %d, want 200 or 429", i, o.status)
				}
			}
			if ok == 0 {
				t.Error("no request was served at all")
			}
			// The admission guarantee: a rejected request never consumed
			// pipeline work, so the question counter moved by exactly the
			// served count.
			if after := metricValue(t, base, "gqa_core_questions_total"); after != questionsBefore+float64(ok) {
				t.Errorf("gqa_core_questions_total moved by %v, want %d (one per 200, zero per 429)",
					after-questionsBefore, ok)
			}
			waited := metricValue(t, base, "gqa_admission_queue_wait_seconds_count") - waitedBefore

			if tc.n <= tc.maxInFlight {
				// Every request found a free slot at under a quarter of the
				// gate's pressure range: full service, nothing shed.
				for i, o := range outcomes {
					if o.status != http.StatusOK || o.shedTier != "" || o.degraded != "" {
						t.Errorf("request %d below capacity: status %d, X-Gqa-Shed-Tier %q, degraded %q; want 200, none, none",
							i, o.status, o.shedTier, o.degraded)
					}
				}
				if d := metricValue(t, base, "gqa_admission_shed_total") - shedBefore; d != 0 {
					t.Errorf("gqa_admission_shed_total moved by %v below capacity, want 0", d)
				}
				if d := metricValue(t, base, "gqa_admission_rejected_total") - rejectedBefore; d != 0 {
					t.Errorf("gqa_admission_rejected_total moved by %v below capacity, want 0", d)
				}
				if waited != 0 {
					t.Errorf("%v requests queued below capacity, want 0", waited)
				}
				return
			}
			capacity := tc.maxInFlight + tc.maxQueue
			if shed < tc.n-capacity {
				t.Errorf("shed %d of %d requests, want >= %d (capacity is %d in-flight + %d queued)",
					shed, tc.n, tc.n-capacity, tc.maxInFlight, tc.maxQueue)
			}
			// Admitted-but-queued requests flowed through the wait histogram.
			if waited <= 0 {
				t.Errorf("gqa_admission_queue_wait_seconds_count moved by %v, want > 0 (requests queued)", waited)
			}
		})
	}
}

// TestHotClientShedFirst: with per-client limiting on, the client
// hammering the server is rejected ("client-rate") while a quiet client
// arriving at the same moment is served — fairness sheds the hot client
// first, not whoever loses the queue race.
func TestHotClientShedFirst(t *testing.T) {
	base, _ := startServer(t, Config{
		Timeout:   30 * time.Second,
		ClientQPS: 0.5, // one token every 2s — the test never refills
	})

	doAs := func(client, q string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/answer?q="+url.QueryEscape(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET as %s: %v", client, err)
		}
		defer resp.Body.Close()
		var body struct {
			Reason string `json:"reason"`
		}
		json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck
		return resp.StatusCode, body.Reason
	}

	// Burst defaults to max(2×QPS,1) = 1 token: the hot client's first
	// request is served, every following one is rate-shed.
	if status, _ := doAs("hot", "Who is the mayor of Berlin?"); status != http.StatusOK {
		t.Fatalf("hot client's first request: status %d, want 200", status)
	}
	sawRate := false
	for i := 0; i < 3; i++ {
		status, reason := doAs("hot", "Who is the mayor of Berlin?")
		if status == http.StatusTooManyRequests {
			sawRate = true
			if reason != "client-rate" {
				t.Errorf("hot client rejection reason = %q, want client-rate", reason)
			}
		}
	}
	if !sawRate {
		t.Error("hot client was never rate-limited")
	}

	// The quiet client is untouched by the hot client's exhausted bucket.
	if status, reason := doAs("cold", "Who is the mayor of Berlin?"); status != http.StatusOK {
		t.Errorf("cold client: status %d (reason %q), want 200 — fairness must shed per client", status, reason)
	}
}

// TestShedTierSurfacesInResponse: when the gate is saturated enough to
// push pressure past 25%, admitted requests carry X-Gqa-Shed-Tier and the
// response's degraded field gains the shed:tier prefix.
func TestShedTierSurfacesInResponse(t *testing.T) {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatalf("building benchmark system: %v", err)
	}
	// Capacity 1+2: with one slow question holding the slot and the queue
	// occupied, pressure for a queued grant is 2/3 or 3/3 → tier >= 2.
	base, _ := startServerWith(t, sys, Config{
		Timeout:     30 * time.Second,
		MaxInFlight: 1,
		MaxQueue:    2,
	})

	faultpoint.Set(faultpoint.MatcherWorker, faultpoint.Fault{Delay: 60 * time.Millisecond})
	defer faultpoint.Reset()

	const n = 3
	type shedResp struct {
		header   string
		tier     int
		degraded string
	}
	results := make([]shedResp, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return // a rejection is fine; we only inspect served ones
			}
			var body struct {
				ShedTier int    `json:"shed_tier"`
				Degraded string `json:"degraded"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = shedResp{
				header:   resp.Header.Get("X-Gqa-Shed-Tier"),
				tier:     body.ShedTier,
				degraded: body.Degraded,
			}
		}(i)
	}
	wg.Wait()

	sawShed := false
	for i, r := range results {
		if r.tier > 0 {
			sawShed = true
			if r.header == "" {
				t.Errorf("request %d: shed tier %d but no X-Gqa-Shed-Tier header", i, r.tier)
			}
			if !strings.HasPrefix(r.degraded, "shed:tier") {
				t.Errorf("request %d: shed tier %d but degraded = %q, want shed:tier prefix",
					i, r.tier, r.degraded)
			}
		}
	}
	if !sawShed {
		t.Error("no served request carried a shed tier despite a saturated gate")
	}
}
