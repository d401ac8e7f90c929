package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTraceTreeAndJSON: span structure, attributes, and both renderings.
func TestTraceTreeAndJSON(t *testing.T) {
	tr := NewTrace("answer", `the "question"`)
	root := tr.Root()
	p := root.Child("nlp.parse")
	p.SetInt("tokens", 7)
	p.Finish()
	m := root.Child("core.match")
	r0 := m.Child("round")
	r0.SetInt("round", 0)
	r0.SetInt("seeds", 3)
	r0.Finish()
	m.SetBool("early_stopped", true)
	m.SetFloat("best_score", -1.25)
	m.SetStr("truncated", "")
	m.Finish()
	tr.Finish()

	tree := tr.Tree()
	for _, want := range []string{
		"answer (", `input="the \"question\""`,
		"├─ nlp.parse (", "tokens=7",
		"└─ core.match (", "early_stopped=true", "best_score=-1.25",
		"└─ round (", "seeds=3",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}

	// The JSON rendering must be valid JSON with the same structure.
	var doc struct {
		Trace string `json:"trace"`
		Input string `json:"input"`
		Span  struct {
			Name  string `json:"name"`
			Spans []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"spans"`
		} `json:"span"`
	}
	if err := json.Unmarshal([]byte(tr.JSON()), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, tr.JSON())
	}
	if doc.Trace != "answer" || doc.Input != `the "question"` {
		t.Fatalf("trace header wrong: %+v", doc)
	}
	if len(doc.Span.Spans) != 2 || doc.Span.Spans[0].Name != "nlp.parse" {
		t.Fatalf("span tree wrong: %+v", doc.Span)
	}
	if doc.Span.Spans[0].Attrs["tokens"] != float64(7) {
		t.Fatalf("attr lost: %+v", doc.Span.Spans[0].Attrs)
	}
}

// TestFindAttrs: the flight recorder's extraction path walks spans in
// creation order.
func TestFindAttrs(t *testing.T) {
	tr := NewTrace("explain", "q")
	m := tr.Root().Child("core.match")
	for _, line := range []string{"first", "second"} {
		sp := m.Child("match")
		sp.SetStr("render", line)
		sp.Finish()
	}
	got := tr.FindAttrs("match", "render")
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("FindAttrs = %v", got)
	}
	if (*Trace)(nil).FindAttrs("match", "render") != nil {
		t.Fatal("nil trace FindAttrs not nil")
	}
}

// TestDisabledTraceZeroAllocs: the nil trace/span is free — every method
// is a no-op with zero allocations, the contract that lets the matcher hot
// path carry instrumentation calls unconditionally.
func TestDisabledTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Root()
		sp := root.Child("round")
		sp.SetInt("seeds", 9)
		sp.SetStr("truncated", "")
		sp.SetFloat("score", 1)
		sp.SetBool("ok", true)
		sp.Finish()
		grand := sp.Child("deeper")
		grand.Finish()
		at := sp.ChildAt("stage", time.Time{})
		at.FinishAt(time.Time{})
		tr.Finish()
		if tr.Tree() != "" || tr.JSON() != "null" || !tr.Start().IsZero() {
			t.Fatal("nil trace rendered content")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op, want 0", allocs)
	}
}

// TestSpansShareReadings: spans opened and finished at the caller's
// readings tile the interval between them exactly, and the trace's start is
// the root span's.
func TestSpansShareReadings(t *testing.T) {
	tr := NewTrace("answer", "q")
	t0 := tr.Start()
	t1, t2 := t0.Add(3*time.Microsecond), t0.Add(10*time.Microsecond)
	a := tr.Root().ChildAt("a", t0)
	a.FinishAt(t1)
	a.FinishAt(t2) // first finish wins
	b := tr.Root().ChildAt("b", t1)
	b.FinishAt(t2)
	tr.Root().FinishAt(t2)
	st := tr.Stages()
	if len(st) != 2 || st[0].Dur != 3*time.Microsecond || st[1].Dur != 7*time.Microsecond {
		t.Fatalf("stages = %+v, want a 3µs then b 7µs", st)
	}
	if tr.Duration() != st[0].Dur+st[1].Dur {
		t.Fatalf("root %v, want the stages' sum %v", tr.Duration(), st[0].Dur+st[1].Dur)
	}
}

// TestContextThreading: WithTrace/TraceFrom round-trip; absent means nil.
func TestContextThreading(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("background context carries a trace")
	}
	tr := NewTrace("answer", "q")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

// TestSpanConcurrency: concurrent children/attrs on one trace are safe
// (run with -race).
func TestSpanConcurrency(t *testing.T) {
	tr := NewTrace("answer", "q")
	root := tr.Root()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				sp := root.Child("round")
				sp.SetInt("j", int64(j))
				sp.Finish()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	tr.Finish()
	if got := len(tr.FindAttrs("round", "j")); got != 800 {
		t.Fatalf("lost spans: %d attrs, want 800", got)
	}
}
