package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Trace is one question's span tree. Build one with NewTrace, thread it
// with WithTrace, and read it back after the call with Answer.Trace (or
// TraceFrom on the same context). All methods are safe on a nil *Trace —
// the disabled state — and safe for concurrent use on a live one (the
// parallel matcher's coordinator and the SPARQL evaluator may touch it
// from different call depths).
type Trace struct {
	mu   sync.Mutex
	name string
	attr string // the traced input (the question / query text)
	id   string // correlation ID (flight recorder / X-Gqa-Trace-Id)
	root *Span
}

// Span is one timed stage of a trace, with ordered attributes and child
// spans. A nil *Span is the disabled span: every method is a no-op that
// allocates nothing and never reads the clock.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute. Exactly one of Str/Int/Float is meaningful,
// per Kind.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
}

// AttrKind discriminates Attr payloads.
type AttrKind uint8

const (
	AttrStr AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool // stored in Int (0/1)
)

// NewTrace starts a trace whose root span is named name; input is the
// traced question or query text.
func NewTrace(name, input string) *Trace {
	tr := &Trace{name: name, attr: input}
	tr.root = &Span{tr: tr, name: name, start: time.Now()}
	return tr
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SetID attaches a correlation ID to the trace (first non-empty wins).
// The flight recorder and the serving layer use it to tie the span tree,
// the wide event, and the X-Gqa-Trace-Id response header together.
func (t *Trace) SetID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	if t.id == "" {
		t.id = id
	}
	t.mu.Unlock()
}

// ID returns the trace's correlation ID ("" when unset or nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Input returns the traced input text ("" on a nil trace).
func (t *Trace) Input() string {
	if t == nil {
		return ""
	}
	return t.attr
}

// Duration returns the root span's duration (zero while unfinished or nil).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.duration()
}

// Finish ends the root span if it is still open.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.root.end.IsZero() {
		t.root.end = time.Now()
	}
	t.mu.Unlock()
}

// Child opens a sub-span under s and returns it. Returns nil (the disabled
// span) when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// Finish records the span's end time (first call wins).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

func (s *Span) setAttr(a Attr) {
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrInt, Int: v})
}

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrStr, Str: v})
}

// SetFloat records a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.setAttr(Attr{Key: key, Kind: AttrFloat, Float: v})
}

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	i := int64(0)
	if v {
		i = 1
	}
	s.setAttr(Attr{Key: key, Kind: AttrBool, Int: i})
}

// Enabled reports whether the span records anything — the hot-path guard
// for instrumentation whose inputs are themselves expensive to compute.
func (s *Span) Enabled() bool { return s != nil }

// value renders an attribute's payload as a string.
func (a *Attr) value() string {
	switch a.Kind {
	case AttrInt:
		return strconv.FormatInt(a.Int, 10)
	case AttrFloat:
		return strconv.FormatFloat(a.Float, 'g', 6, 64)
	case AttrBool:
		if a.Int != 0 {
			return "true"
		}
		return "false"
	}
	return a.Str
}

// jsonLiteral renders the payload as a JSON value.
func (a *Attr) jsonLiteral() string {
	switch a.Kind {
	case AttrInt:
		return strconv.FormatInt(a.Int, 10)
	case AttrFloat:
		return strconv.FormatFloat(a.Float, 'g', -1, 64)
	case AttrBool:
		if a.Int != 0 {
			return "true"
		}
		return "false"
	}
	return jsonString(a.Str)
}

// jsonString renders s as a JSON string literal — the one path every string
// of a trace takes into JSON. The input is whatever a client sent
// (strconv.Quote would write Go syntax for it, \x01 or \xff, which no JSON
// parser accepts); invalid UTF-8 comes out as U+FFFD.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// duration returns the span's elapsed time; an unfinished span reads as
// "still open" at its parent's finish time (or zero).
func (s *Span) duration() time.Duration {
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// JSON renders the whole trace as a deterministic JSON object (attribute
// and child order preserved). Returns "null" for a nil trace.
func (t *Trace) JSON() string {
	if t == nil {
		return "null"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `{"trace":%s,"input":%s,`, jsonString(t.name), jsonString(t.attr))
	if t.id != "" {
		fmt.Fprintf(&b, `"id":%s,`, jsonString(t.id))
	}
	b.WriteString(`"span":`)
	t.root.writeJSON(&b)
	b.WriteByte('}')
	return b.String()
}

// StageDur is one top-level pipeline stage's aggregated duration, as
// extracted from a trace by Stages.
type StageDur struct {
	Name string
	Dur  time.Duration
}

// Stages aggregates the durations of the root span's direct children by
// name, in first-seen order — the per-stage breakdown a wide event
// carries. Children of children (matcher rounds) are not walked: only
// top-level stages, so callers that drop wrapper spans (cache.lookup covers
// the whole pipeline) can make the remainder sum to within the root
// duration. Returns nil on a nil trace.
func (t *Trace) Stages() []StageDur {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []StageDur
	for _, c := range t.root.children {
		d := c.duration()
		found := false
		for i := range out {
			if out[i].Name == c.name {
				out[i].Dur += d
				found = true
				break
			}
		}
		if !found {
			out = append(out, StageDur{Name: c.name, Dur: d})
		}
	}
	return out
}

func (s *Span) writeJSON(b *strings.Builder) {
	fmt.Fprintf(b, `{"name":%s,"us":%d`, jsonString(s.name), s.duration().Microseconds())
	if len(s.attrs) > 0 {
		b.WriteString(`,"attrs":{`)
		for i := range s.attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(jsonString(s.attrs[i].Key))
			b.WriteByte(':')
			b.WriteString(s.attrs[i].jsonLiteral())
		}
		b.WriteByte('}')
	}
	if len(s.children) > 0 {
		b.WriteString(`,"spans":[`)
		for i, c := range s.children {
			if i > 0 {
				b.WriteByte(',')
			}
			c.writeJSON(b)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
}

// Tree renders the trace as a human-readable indented tree:
//
//	answer (1.2ms) question="Who is the mayor of Berlin?"
//	├─ nlp.parse (85µs) tokens=7
//	└─ core.match (1.0ms) rounds=2 seeds=14
//	   └─ round (510µs) round=0 seeds=7
//
// Returns "" for a nil trace.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	t.root.writeTree(&b, "", "", true, t.attr)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) writeTree(b *strings.Builder, prefix, branch string, root bool, input string) {
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(s.name)
	fmt.Fprintf(b, " (%s)", s.duration().Round(time.Microsecond))
	if root && input != "" {
		fmt.Fprintf(b, " input=%q", input)
	}
	for i := range s.attrs {
		a := &s.attrs[i]
		if a.Kind == AttrStr {
			fmt.Fprintf(b, " %s=%q", a.Key, a.Str)
		} else {
			fmt.Fprintf(b, " %s=%s", a.Key, a.value())
		}
	}
	b.WriteByte('\n')
	childPrefix := prefix
	if !root {
		if branch == "└─ " {
			childPrefix += "   "
		} else if branch != "" {
			childPrefix += "│  "
		}
	}
	for i, c := range s.children {
		cb := "├─ "
		if i == len(s.children)-1 {
			cb = "└─ "
		}
		c.writeTree(b, childPrefix, cb, false, "")
	}
}

// FindAttrs walks the span tree in order and collects the string values of
// attribute key on every span named spanName: how the flight recorder reads
// a request's cache outcome and RPC counters off its trace.
func (t *Trace) FindAttrs(spanName, key string) []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.name == spanName {
			for i := range s.attrs {
				if s.attrs[i].Key == key {
					out = append(out, s.attrs[i].value())
				}
			}
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// ------------------------------------------------------------------ context

type traceKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace on ctx, or nil (the disabled trace).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
