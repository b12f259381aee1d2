package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hummer"
	"hummer/internal/obs"
)

// traceFor fetches one trace by request ID from GET /v1/trace.
func traceFor(t *testing.T, ts *httptest.Server, id string) *obs.TraceView {
	t.Helper()
	status, body := doJSON(t, ts, http.MethodGet, "/v1/trace?id="+id, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace?id=%s: status %d: %s", id, status, body)
	}
	var resp struct {
		Traces []*obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 1 {
		t.Fatalf("want exactly 1 trace for id %s, got %d", id, len(resp.Traces))
	}
	return resp.Traces[0]
}

// phaseCounts flattens a span tree into name → occurrence count and
// asserts every span in it has a positive duration.
func phaseCounts(t *testing.T, root *obs.SpanView) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	var walk func(sv *obs.SpanView)
	walk = func(sv *obs.SpanView) {
		counts[sv.Name]++
		if sv.DurationSeconds <= 0 {
			t.Errorf("span %q has non-positive duration %v", sv.Name, sv.DurationSeconds)
		}
		for _, c := range sv.Children {
			walk(c)
		}
	}
	for _, c := range root.Children {
		walk(c)
	}
	return counts
}

// tracedQuery runs sql with trace:true and returns the trace_id.
func tracedQuery(t *testing.T, ts *httptest.Server, sql string) string {
	t.Helper()
	status, body := doJSON(t, ts, http.MethodPost, "/v1/query",
		queryRequest{SQL: sql, Trace: true})
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("trace:true but no trace_id in response")
	}
	return resp.TraceID
}

// TestTraceSpanCompleteness is the acceptance check for the span
// vocabulary: a cold FUSE BY query's trace has every pipeline phase
// exactly once with non-zero durations that sum to no more than the
// root's wall time; a warm repeat shows the skipped phases absent, not
// zero-duration.
func TestTraceSpanCompleteness(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	coldID := tracedQuery(t, ts, fuseQuery)
	cold := traceFor(t, ts, coldID)
	counts := phaseCounts(t, cold.Root)
	wantOnce := []string{
		"plan", "cache.fused", "pipeline", "load",
		"match", "match.corpus", "match.score", "match.matrix",
		"merge",
		"detect", "detect.corpus", "detect.score", "detect.cluster",
		"fuse", "post",
	}
	for _, name := range wantOnce {
		if counts[name] != 1 {
			t.Errorf("cold query: phase %q appears %d times, want 1 (all: %v)", name, counts[name], counts)
		}
	}
	// Sibling top-level phases are sequential, so their durations must
	// fit inside the root's wall time (floating-point rendering earns a
	// small tolerance).
	var sum float64
	for _, c := range cold.Root.Children {
		sum += c.DurationSeconds
	}
	if sum > cold.Root.DurationSeconds*1.01+1e-6 {
		t.Errorf("top-level phase durations sum to %v > root %v", sum, cold.Root.DurationSeconds)
	}

	warmID := tracedQuery(t, ts, fuseQuery)
	warm := traceFor(t, ts, warmID)
	wcounts := phaseCounts(t, warm.Root)
	if wcounts["plan"] != 1 || wcounts["cache.fused"] != 1 {
		t.Errorf("warm query: want plan and cache.fused once each, got %v", wcounts)
	}
	for _, absent := range []string{"pipeline", "load", "match", "detect", "fuse", "post"} {
		if wcounts[absent] != 0 {
			t.Errorf("warm query: phase %q should be absent on a cache hit, got %d (all: %v)",
				absent, wcounts[absent], wcounts)
		}
	}
	var fusedSpan *obs.SpanView
	for _, c := range warm.Root.Children {
		if c.Name == "cache.fused" {
			fusedSpan = c
		}
	}
	if fusedSpan == nil {
		t.Fatal("warm query: no cache.fused span")
	}
	if got := fusedSpan.Attrs["outcome"]; got != "hit" {
		t.Errorf("warm cache.fused outcome = %v, want \"hit\"", got)
	}
}

// TestTraceByteIdentity is the out-of-band property: the same queries
// against a tracing server and a tracing-disabled server produce
// byte-identical response bodies.
func TestTraceByteIdentity(t *testing.T) {
	traced := newTestServer(t)
	untraced := httptest.NewServer(New(hummer.New(), WithTraceRing(0)).Handler())
	t.Cleanup(untraced.Close)
	registerStudents(t, traced)
	registerStudents(t, untraced)

	queries := []string{
		fuseQuery,
		`SELECT Name, Age FROM EE_Student ORDER BY Name`,
		fuseQuery, // warm repeat: cache path must match too
	}
	for i, sql := range queries {
		req := queryRequest{SQL: sql, Lineage: i == 0}
		s1, b1 := doJSON(t, traced, http.MethodPost, "/v1/query", req)
		s2, b2 := doJSON(t, untraced, http.MethodPost, "/v1/query", req)
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Errorf("query %d: traced (%d) %s\nuntraced (%d) %s", i, s1, b1, s2, b2)
		}
	}
	// Streaming path too.
	s1, b1 := doJSON(t, traced, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	s2, b2 := doJSON(t, untraced, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	if s1 != s2 || !bytes.Equal(b1, b2) {
		t.Errorf("stream: traced (%d) %s\nuntraced (%d) %s", s1, b1, s2, b2)
	}
}

// TestTraceEndpointConcurrent hammers queries and /v1/trace reads
// concurrently; run under -race it is the ring's data-race check
// against live handler publication.
func TestTraceEndpointConcurrent(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	const (
		writers = 4
		readers = 4
		rounds  = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Distinct SQL per round defeats the fused cache so
				// traces keep carrying full span trees.
				sql := fmt.Sprintf(`SELECT Name FROM EE_Student WHERE Age > %d ORDER BY Name`, (w*rounds+i)%40)
				status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: sql})
				if status != http.StatusOK {
					t.Errorf("query: status %d: %s", status, body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				status, body := doJSON(t, ts, http.MethodGet, "/v1/trace?limit=16", nil)
				if status != http.StatusOK {
					t.Errorf("trace: status %d: %s", status, body)
					return
				}
			}
		}()
	}
	wg.Wait()

	status, body := doJSON(t, ts, http.MethodGet, "/v1/trace", nil)
	if status != http.StatusOK {
		t.Fatalf("final trace fetch: %d: %s", status, body)
	}
	var resp struct {
		Traces []*obs.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) == 0 {
		t.Fatal("no traces in ring after concurrent load")
	}
}

// TestRequestIDHeader: every response — traced or not — carries the
// request ID header, and trace_id only appears when asked for.
func TestRequestIDHeader(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Hummer-Request-Id") == "" {
		t.Error("/v1/stats response missing X-Hummer-Request-Id")
	}

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query",
		queryRequest{SQL: `SELECT Name FROM EE_Student ORDER BY Name`})
	if status != http.StatusOK {
		t.Fatalf("query: %d: %s", status, body)
	}
	if bytes.Contains(body, []byte("trace_id")) {
		t.Errorf("trace_id present without trace:true: %s", body)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog: with a nanosecond threshold every query is slow;
// the log line carries the request ID and the span tree.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(New(hummer.New(),
		WithLogger(logger),
		WithSlowQueryLog(time.Nanosecond)).Handler())
	t.Cleanup(ts.Close)
	registerStudents(t, ts)

	id := tracedQuery(t, ts, fuseQuery)
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query log line; log: %s", out)
	}
	if !strings.Contains(out, id) {
		t.Errorf("slow-query log does not mention request id %s; log: %s", id, out)
	}
	if !strings.Contains(out, `"pipeline"`) {
		t.Errorf("slow-query log does not carry the span tree; log: %s", out)
	}
}

// TestStreamBackpressureMetrics: streaming a result advances the
// produced-rows counter exposed on /metrics and /v1/stats.
func TestStreamBackpressureMetrics(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	before := streamProducedFromStats(t, ts)
	status, body := doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("stream: %d: %s", status, body)
	}
	after := streamProducedFromStats(t, ts)
	if after <= before {
		t.Errorf("stream_produced_rows did not advance: before %d, after %d", before, after)
	}

	status, metrics := doJSON(t, ts, http.MethodGet, "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, want := range []string{
		"hummer_stream_produced_rows_total",
		"hummer_phase_duration_seconds_bucket{phase=\"pipeline\"",
		"hummer_goroutines",
		"hummer_heap_alloc_bytes",
		"hummer_gc_pause_seconds_total",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func streamProducedFromStats(t *testing.T, ts *httptest.Server) uint64 {
	t.Helper()
	status, body := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: %d: %s", status, body)
	}
	var resp struct {
		StreamProducedRows uint64 `json:"stream_produced_rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.StreamProducedRows
}
