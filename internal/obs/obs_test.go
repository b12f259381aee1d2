package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndView(t *testing.T) {
	tr := NewTrace("req-1", "POST /v1/query")
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if SpanFrom(ctx) != tr.Root {
		t.Fatal("SpanFrom is not the root span")
	}

	pctx, plan := StartSpan(ctx, "plan")
	plan.SetInt("statements", 1)
	plan.End()
	if SpanFrom(pctx) != plan {
		t.Fatal("StartSpan did not install the child span")
	}

	cctx, pipe := StartSpan(ctx, "pipeline")
	_, match := StartSpan(cctx, "match")
	match.SetStr("cache", "miss")
	time.Sleep(time.Millisecond)
	match.End()
	pipe.End()
	tr.Finish()

	v := tr.View()
	if v.TraceID != "req-1" || v.Root == nil {
		t.Fatalf("view = %+v", v)
	}
	if v.DurationSeconds <= 0 {
		t.Errorf("root duration = %v, want > 0", v.DurationSeconds)
	}
	if len(v.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(v.Root.Children))
	}
	mv := v.Root.Children[1].Children[0]
	if mv.Name != "match" || mv.Attrs["cache"] != "miss" {
		t.Errorf("match span = %+v", mv)
	}
	if mv.DurationSeconds <= 0 {
		t.Errorf("match duration = %v, want > 0", mv.DurationSeconds)
	}
	pv := v.Root.Children[0]
	if got, ok := pv.Attrs["statements"].(int64); !ok || got != 1 {
		t.Errorf("plan attrs = %+v", pv.Attrs)
	}

	// The view must be JSON-serializable (it is the /v1/trace shape).
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"trace_id":"req-1"`)) {
		t.Errorf("serialized view missing trace_id: %s", data)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTrace("r", "q")
	sp := tr.Root.StartChild("phase")
	sp.End()
	d := sp.Duration()
	time.Sleep(time.Millisecond)
	sp.End() // must not move the end time
	if sp.Duration() != d {
		t.Errorf("second End moved duration: %v -> %v", d, sp.Duration())
	}
}

// TestNoopSpanZeroAllocs pins the disabled-tracing contract: with no
// trace on the context, the full StartSpan/SetInt/SetStr/End cycle
// performs zero allocations. This is the `make check` gate that keeps
// instrumentation free for every non-traced query.
func TestNoopSpanZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "pipeline")
		sp.SetInt("rows", 42)
		sp.SetStr("cache", "miss")
		sp.End()
		_, child := StartSpan(c, "match")
		child.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkNoopSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := StartSpan(ctx, "pipeline")
		sp.SetInt("rows", i)
		sp.End()
		_, child := StartSpan(c, "match")
		child.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTrace("bench", "q")
	ctx := ContextWithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "pipeline")
		sp.SetInt("rows", i)
		sp.End()
	}
}

func TestRingOrderAndEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), "q")
		tr.Finish()
		r.Add(tr)
	}
	if r.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", r.Len())
	}
	views := r.Snapshot(0)
	want := []string{"req-4", "req-3", "req-2"} // newest first
	if len(views) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(views), len(want))
	}
	for i, v := range views {
		if v.TraceID != want[i] {
			t.Errorf("snapshot[%d] = %s, want %s", i, v.TraceID, want[i])
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].TraceID != "req-4" {
		t.Errorf("limited snapshot = %+v", got)
	}
}

func TestRingDisabled(t *testing.T) {
	var r *Ring
	if NewRing(0) != nil {
		t.Error("NewRing(0) must return nil (disabled)")
	}
	r.Add(NewTrace("x", "q")) // must not panic
	if r.Len() != 0 || r.Snapshot(0) != nil {
		t.Error("nil ring must be empty")
	}
}

// TestRingConcurrent hammers Add and Snapshot from many goroutines;
// run under -race (the Makefile's race target includes this package).
func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i), "q")
				sp := tr.Root.StartChild("phase")
				sp.SetInt("i", i)
				sp.End()
				tr.Finish()
				r.Add(tr)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, v := range r.Snapshot(0) {
					if v.TraceID == "" {
						t.Error("empty trace id in snapshot")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Errorf("ring len = %d, want 8", r.Len())
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("malformed request id %s", id)
		}
	}
}

func TestDurationHist(t *testing.T) {
	h := NewDurationHist([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0 (≤1ms)
	h.Observe(5 * time.Millisecond)   // bucket 1 (≤10ms)
	h.Observe(50 * time.Millisecond)  // bucket 2 (≤100ms)
	h.Observe(2 * time.Second)        // +Inf bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	want := []uint64{1, 1, 1, 1}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
	if s.Seconds < 2.0 || s.Seconds > 2.1 {
		t.Errorf("sum seconds = %v", s.Seconds)
	}
	var nilh *DurationHist
	nilh.Observe(time.Second) // must not panic
	if nilh.Snapshot().Count != 0 {
		t.Error("nil hist must be empty")
	}
}

// TestDurationHistNegativeClamped: a negative duration counts as 0 in
// both the first bucket and the sum, instead of wrapping to ~1.8e10 s.
func TestDurationHistNegativeClamped(t *testing.T) {
	h := NewDurationHist([]float64{0.001, 0.01})
	h.Observe(-time.Millisecond)
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 1 || s.Buckets[1] != 1 {
		t.Errorf("buckets = %v (count %d), want [1 1 0]", s.Buckets, s.Count)
	}
	if s.Seconds != 0.005 {
		t.Errorf("sum seconds = %v, want 0.005", s.Seconds)
	}
}

// TestHistSnapshotQuantile: interpolated percentiles bracket the true
// values at bucket resolution, overflow floors at the largest finite
// bound, and an empty histogram reports 0.
func TestHistSnapshotQuantile(t *testing.T) {
	bounds := []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

	// 100 observations at ~2ms: all in the (0.001, 0.0025] bucket.
	h := NewDurationHist(bounds)
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := s.Quantile(q); got <= 0.001 || got > 0.0025 {
			t.Errorf("Quantile(%v) = %v, want in (0.001, 0.0025]", q, got)
		}
	}

	// A bimodal distribution: p50 in the low mode, p99 in the high one.
	h2 := NewDurationHist(bounds)
	for i := 0; i < 90; i++ {
		h2.Observe(2 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(700 * time.Millisecond)
	}
	s2 := h2.Snapshot()
	if p50 := s2.Quantile(0.50); p50 > 0.0025 {
		t.Errorf("p50 = %v, want <= 0.0025", p50)
	}
	if p99 := s2.Quantile(0.99); p99 <= 0.5 || p99 > 1 {
		t.Errorf("p99 = %v, want in (0.5, 1]", p99)
	}

	// Beyond the last bound: the quantile floors at the largest finite
	// bound rather than inventing a value.
	h3 := NewDurationHist(bounds)
	h3.Observe(5 * time.Minute)
	if got := h3.Snapshot().Quantile(0.5); got != 60 {
		t.Errorf("overflow quantile = %v, want 60", got)
	}

	// Empty histogram.
	if got := NewDurationHist(bounds).Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestDurationHistSnapshotConsistent snapshots while goroutines
// observe: every snapshot's Count must equal its bucket sum, or the
// exposition prints a finite cumulative bucket above le="+Inf". Run
// under -race (the Makefile's race target includes this package).
func TestDurationHistSnapshotConsistent(t *testing.T) {
	h := NewDurationHist([]float64{0.0001, 0.001, 0.01, 0.1, 1, 10})
	const workers, per = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	check := func(s HistSnapshot) {
		t.Helper()
		var sum uint64
		for _, n := range s.Buckets {
			sum += n
		}
		if sum != s.Count {
			t.Fatalf("bucket sum %d != count %d", sum, s.Count)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check(h.Snapshot())
	}
	s := h.Snapshot()
	check(s)
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "request_id", "r-1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v in %s", err, buf.Bytes())
	}
	if rec["msg"] != "hello" || rec["request_id"] != "r-1" {
		t.Errorf("record = %v", rec)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Errorf("level filtering broken: %q", out)
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("bad level must error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("bad format must error")
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Error("empty ctx must have no request id")
	}
	ctx = WithRequestID(ctx, "r-9")
	if RequestID(ctx) != "r-9" {
		t.Error("request id lost")
	}
}
