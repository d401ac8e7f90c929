package gqa

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestBudgetShed pins the shed arithmetic: finite limits halve per tier,
// unlimited (zero) limits acquire the tier-1 floor and halve from there,
// nothing goes below 1 (or 1ms), tier 0 is the identity, and tiers beyond
// 3 clamp.
func TestBudgetShed(t *testing.T) {
	finite := Budget{
		Timeout:        8 * time.Second,
		MaxSearchSteps: 8000,
		MaxCandidates:  800,
		MaxSPARQLRows:  80,
	}
	for _, tc := range []struct {
		name string
		in   Budget
		tier int
		want Budget
	}{
		{"tier 0 identity", finite, 0, finite},
		{"negative tier identity", finite, -2, finite},
		{"finite tier 1 halves", finite, 1, Budget{
			Timeout: 4 * time.Second, MaxSearchSteps: 4000, MaxCandidates: 400, MaxSPARQLRows: 40}},
		{"finite tier 2 quarters", finite, 2, Budget{
			Timeout: 2 * time.Second, MaxSearchSteps: 2000, MaxCandidates: 200, MaxSPARQLRows: 20}},
		{"finite tier 3 eighths", finite, 3, Budget{
			Timeout: time.Second, MaxSearchSteps: 1000, MaxCandidates: 100, MaxSPARQLRows: 10}},
		{"tier past 3 clamps", finite, 9, Budget{
			Timeout: time.Second, MaxSearchSteps: 1000, MaxCandidates: 100, MaxSPARQLRows: 10}},
		{"unlimited gets tier-1 floors", Budget{}, 1, Budget{
			Timeout: 2 * time.Second, MaxSearchSteps: 1 << 20, MaxCandidates: 1 << 16, MaxSPARQLRows: 1 << 20}},
		{"unlimited tier 3 halves floors twice", Budget{}, 3, Budget{
			Timeout: 500 * time.Millisecond, MaxSearchSteps: 1 << 18, MaxCandidates: 1 << 14, MaxSPARQLRows: 1 << 18}},
		{"tiny limits never reach zero", Budget{
			Timeout: time.Millisecond, MaxSearchSteps: 1, MaxCandidates: 1, MaxSPARQLRows: 1}, 3, Budget{
			Timeout: time.Millisecond, MaxSearchSteps: 1, MaxCandidates: 1, MaxSPARQLRows: 1}},
	} {
		if got := tc.in.Shed(tc.tier); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Shed(%d) = %+v, want %+v", tc.name, tc.tier, got, tc.want)
		}
	}
}

// TestAnswerShedAnnotates: a shed answer that ran the pipeline reports
// its tier, prefixes Degraded with shed:tierN — and, when the search
// completed inside the shrunken budget, is still the exact full answer.
func TestAnswerShedAnnotates(t *testing.T) {
	sys := benchmarkSystem(t)
	const q = "Who is the mayor of Berlin?"

	full, err := sys.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if full.ShedTier != 0 || full.Degraded != "" {
		t.Fatalf("unshed answer carries shed state: tier=%d degraded=%q", full.ShedTier, full.Degraded)
	}

	shed, err := sys.AnswerShed(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shed.ShedTier != 2 {
		t.Errorf("ShedTier = %d, want 2", shed.ShedTier)
	}
	if shed.Degraded != "shed:tier2" {
		t.Errorf("Degraded = %q, want shed:tier2 (search completes within the shed budget)", shed.Degraded)
	}
	if !reflect.DeepEqual(shed.Labels, full.Labels) {
		t.Errorf("shed answer labels %v differ from full-budget labels %v — a completed search must be exact",
			shed.Labels, full.Labels)
	}
}

// TestAnswerShedBudgetExhaustionCompounds: when the shed budget itself is
// what cuts the search short, Degraded joins the tier and the exhausted
// resource ("shed:tierN/<reason>").
func TestAnswerShedBudgetExhaustionCompounds(t *testing.T) {
	base := benchmarkSystem(t)
	sys := NewSystem(base.Graph(), base.Dictionary(), Options{
		// Shed(1) halves this to 1 step — guaranteed exhaustion.
		Budget: Budget{MaxSearchSteps: 2},
	})
	ans, err := sys.AnswerShed(context.Background(), "Who was married to an actor that played in Philadelphia?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded != "shed:tier1/steps" {
		t.Errorf("Degraded = %q, want shed:tier1/steps", ans.Degraded)
	}
	if ans.ShedTier != 1 {
		t.Errorf("ShedTier = %d, want 1", ans.ShedTier)
	}
}

// TestAnswerShedCacheStaysClean is the shed/cache interplay contract: a
// tier-shed leader stores the clean (unannotated) answer, so later cache
// hits — at any tier, including tier 0 — carry no shed marking, and a
// shed call that hits the cache is not annotated either (it cost no
// pipeline work, so nothing was shed).
func TestAnswerShedCacheStaysClean(t *testing.T) {
	sys := cachedSystem(t, 64)
	const q = "Who is the mayor of Berlin?"

	// Leader runs at tier 3: its own answer is annotated...
	leader, err := sys.AnswerShed(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if leader.ShedTier != 3 || leader.Degraded != "shed:tier3" {
		t.Fatalf("leader: tier=%d degraded=%q, want 3/shed:tier3", leader.ShedTier, leader.Degraded)
	}

	// ...but the stored entry is clean: a tier-0 caller gets a pristine hit.
	hit, err := sys.AnswerContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hit.ShedTier != 0 || hit.Degraded != "" {
		t.Errorf("tier-0 cache hit carries shed state: tier=%d degraded=%q", hit.ShedTier, hit.Degraded)
	}
	if !reflect.DeepEqual(hit.Labels, leader.Labels) {
		t.Errorf("cache hit labels %v differ from leader labels %v", hit.Labels, leader.Labels)
	}

	// A shed caller hitting the cache is served clean too: no pipeline
	// work ran on its behalf, so there is nothing to report as shed.
	shedHit, err := sys.AnswerShed(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shedHit.ShedTier != 0 || shedHit.Degraded != "" {
		t.Errorf("tier-2 cache hit annotated: tier=%d degraded=%q, want clean", shedHit.ShedTier, shedHit.Degraded)
	}
}
