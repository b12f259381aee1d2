// Package obs is hummerd's zero-dependency observability substrate:
// per-query span traces, request IDs, a trace ring buffer, duration
// histograms and a structured-logger constructor — all stdlib-only.
//
// # Spans ride out-of-band
//
// A trace is attached to a context.Context; every pipeline layer that
// wants to report a phase calls StartSpan and End around the work.
// Spans never touch query results, so the byte-identity contract
// (cold/warm, any worker count, traced/untraced) is untouched by
// construction — tracing changes *when* things are measured, never
// *what* is computed.
//
// # The disabled path is free
//
// When no trace rides the context, StartSpan returns a nil *Span and
// the unchanged context. Every Span method is nil-safe, so the
// instrumented code needs no guards, and the whole path performs zero
// allocations (asserted by TestNoopSpanZeroAllocs and gated in
// `make check`).
//
// # Concurrency
//
// A span's child list and attributes are mutex-protected: concurrent
// batch statements append spans to a trace whose root was created by
// the HTTP handler goroutine. Publication to the Ring
// must happen only after every goroutine that could touch the trace
// has been joined (the server publishes after the handler — and thus
// the stream drain — returns).
package obs

import (
	"sync"
	"time"
)

// Attr is one key/value annotation on a span: a row count, a worker
// count, a cache outcome.
type Attr struct {
	Key string
	Val any // int64 or string
}

// Span is one timed phase in a trace tree. The zero value is not
// used; spans are created by NewTrace and StartChild. A nil *Span is
// the disabled-tracing no-op: every method is nil-safe and free.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero until End
	attrs    []Attr
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild adds and returns a new child span. Safe to call from a
// different goroutine than the one that created s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's end time. Idempotent: the first call wins, so
// `defer sp.End()` can back up an explicit End on the happy path to
// cover early error returns.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute (row counts, worker counts).
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: int64(v)})
	s.mu.Unlock()
}

// SetStr attaches a string attribute (cache outcomes, source names).
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	s.mu.Unlock()
}

// Duration is the span's measured wall time; zero while un-ended.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Trace is one request's span tree. ID doubles as the request ID the
// server hands out in the X-Hummer-Request-Id header.
type Trace struct {
	ID   string
	Name string
	Root *Span
}

// NewTrace starts a trace whose root span begins now.
func NewTrace(id, name string) *Trace {
	return &Trace{ID: id, Name: name, Root: newSpan(name)}
}

// Finish ends the root span. Call exactly once, after every goroutine
// that might add spans has been joined.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// Duration is the root span's wall time.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.Root.Duration()
}

// TraceView is the JSON shape of a finished trace, served by
// GET /v1/trace and dumped by the slow-query log.
type TraceView struct {
	TraceID         string    `json:"trace_id"`
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Root            *SpanView `json:"root"`
}

// SpanView is one rendered span: name, duration, attributes, children.
type SpanView struct {
	Name            string         `json:"name"`
	DurationSeconds float64        `json:"duration_seconds"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []*SpanView    `json:"children,omitempty"`
}

// View renders the trace into its JSON shape. Safe on a live trace
// (spans lock individually), but durations of un-ended spans read 0.
func (t *Trace) View() *TraceView {
	if t == nil {
		return nil
	}
	return &TraceView{
		TraceID:         t.ID,
		Name:            t.Name,
		Start:           t.Root.start,
		DurationSeconds: t.Duration().Seconds(),
		Root:            t.Root.View(),
	}
}

// View renders the span subtree rooted at s.
func (s *Span) View() *SpanView {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	v := &SpanView{
		Name:            s.name,
		DurationSeconds: s.durationLocked().Seconds(),
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Val
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.View())
	}
	return v
}

// durationLocked is Duration for callers already holding s.mu.
func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}
