package server

import (
	"fmt"
	"maps"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"hummer"
	"hummer/internal/fault"
	"hummer/internal/obs"
	"hummer/internal/plan"
	"hummer/internal/qcache"
)

// metricKind is a metric's Prometheus type.
type metricKind string

const (
	counter   metricKind = "counter"
	gauge     metricKind = "gauge"
	histogram metricKind = "histogram"
)

// metric is one entry of metricTable: a counter, gauge or histogram
// family, rendered on /metrics under name (with help as its HELP
// text) and on /v1/stats under stat. An empty name or stat keeps the
// entry off that surface.
type metric struct {
	name, stat, help string
	kind             metricKind
	// value reads an unlabelled counter or gauge. A labelled family
	// sets label and series instead; one that is also on /v1/stats is
	// a histogram, rendered there as a LatencySummary per label value.
	value  func(*scrape) float64
	label  string
	series func(*scrape) []series
}

// series is one labelled member of a family: a counter value, or a
// histogram snapshot.
type series struct {
	label string
	value float64
	hist  obs.HistSnapshot
}

// scrape is what one rendering reads: the server, and the DB's stats,
// read once.
type scrape struct {
	*Server
	db hummer.Stats
	// mem is the Go runtime's memory stats. Only /metrics reads them:
	// no /v1/stats entry needs the stop-the-world read.
	mem runtime.MemStats
}

// metricTable declares every metric the server exposes, once, in
// /metrics order.
var metricTable = []metric{
	{name: "hummer_requests_total", stat: "requests", kind: counter, help: "HTTP requests received.",
		value: func(sc *scrape) float64 { return float64(sc.requests.Load()) }},
	{name: "hummer_queries_total", kind: counter, help: "Statements executed via /v1/query, /v1/query/stream and /v1/batch.",
		value: func(sc *scrape) float64 { return float64(sc.statementTotals().Count) }},
	{name: "hummer_query_errors_total", kind: counter, help: "Queries that returned an error (including cancellations and timeouts).",
		value: func(sc *scrape) float64 { return float64(sc.queryErrors.Load()) }},
	{name: "hummer_queries_rejected_total", stat: "rejected_queries", kind: counter, help: "Queries rejected by the inflight admission cap (HTTP 429).",
		value: func(sc *scrape) float64 { return float64(sc.rejected.Load()) }},
	{name: "hummer_query_client_disconnects_total", stat: "client_disconnects", kind: counter, help: "Queries cancelled because the client closed the connection (HTTP 499 or a stream cut mid-write), one per statement for /v1/batch.",
		value: func(sc *scrape) float64 { return float64(sc.clientGone.Load()) }},
	{name: "hummer_query_timeouts_total", stat: "query_timeouts", kind: counter, help: "Queries aborted by the query timeout (HTTP 504), one per /v1/batch statement that outlived it or its timeout_ms.",
		value: func(sc *scrape) float64 { return float64(sc.timeouts.Load()) }},
	{name: "hummer_body_read_timeouts_total", stat: "body_read_timeouts", kind: counter, help: "Requests whose body read outlived the per-slot deadline (HTTP 408).",
		value: func(sc *scrape) float64 { return float64(sc.bodyTimeouts.Load()) }},
	{name: "hummer_streamed_queries_total", stat: "streamed_queries", kind: counter, help: "Statements that began streaming via /v1/query/stream.",
		value: func(sc *scrape) float64 { return float64(sc.streamedQueries.Load()) }},
	{name: "hummer_streamed_rows_total", stat: "streamed_rows", kind: counter, help: "NDJSON row records emitted by /v1/query/stream.",
		value: func(sc *scrape) float64 { return float64(sc.streamedRows.Load()) }},
	{name: "hummer_batch_requests_total", stat: "batch_requests", kind: counter, help: "Batch requests executed via /v1/batch.",
		value: func(sc *scrape) float64 { return float64(sc.batchRequests.Load()) }},
	{name: "hummer_batch_statements_total", stat: "batch_statements", kind: counter, help: "Statements executed inside /v1/batch requests.",
		value: func(sc *scrape) float64 { return float64(sc.latBatch.Snapshot().Count) }},
	{name: "hummer_batch_statement_errors_total", stat: "batch_statement_errors", kind: counter, help: "Batch statements that failed (each statement fails independently).",
		value: func(sc *scrape) float64 { return float64(sc.batchErrors.Load()) }},
	{name: "hummer_panics_recovered_total", stat: "panics_recovered", kind: counter, help: "Panics contained anywhere in the process and converted to internal errors.",
		value: func(*scrape) float64 { return float64(fault.Recovered()) }},
	{name: "hummer_internal_errors_total", stat: "internal_errors", kind: counter, help: "Requests that failed on a contained panic (HTTP 500 or an error trailer), one per failed statement for /v1/batch.",
		value: func(sc *scrape) float64 { return float64(sc.internalErrors.Load()) }},
	{name: "hummer_admission_waits_total", stat: "admission_waits", kind: counter, help: "Requests that queued for an admission slot.",
		value: func(sc *scrape) float64 { return float64(sc.queuedTotal.Load()) }},
	{name: "hummer_admission_wait_timeouts_total", stat: "admission_wait_timeouts", kind: counter, help: "Admission waits that expired into a 503.",
		value: func(sc *scrape) float64 { return float64(sc.queueTimeouts.Load()) }},
	{name: "hummer_admission_waiters", stat: "admission_waiters", kind: gauge, help: "Requests queued for an admission slot right now.",
		value: func(sc *scrape) float64 { return float64(sc.queuedNow.Load()) }},
	{name: "hummer_inflight_queries", stat: "inflight_queries", kind: gauge, help: "Queries executing right now.",
		value: func(sc *scrape) float64 { return float64(sc.inflight.Load()) }},
	{name: "hummer_uptime_seconds", stat: "uptime_seconds", kind: gauge, help: "Seconds since the server started.",
		value: func(sc *scrape) float64 { return time.Since(sc.start).Seconds() }},
	{stat: "query_seconds", kind: counter, help: "Wall-clock seconds spent executing statements (/v1/query, /v1/query/stream and /v1/batch, failed ones included).",
		value: func(sc *scrape) float64 { return sc.statementTotals().Seconds }},
	{name: "hummer_query_duration_seconds", stat: "latency", kind: histogram, label: "class", help: "Wall-clock statement execution time by query class (query = /v1/query, stream = whole /v1/query/stream, batch = individual /v1/batch statements).",
		series: (*scrape).classes},
	{name: "hummer_phase_duration_seconds", stat: "phases", kind: histogram, label: "phase", help: "Pipeline phase durations from per-query span tracing.",
		series: (*scrape).phaseSeries},
	{name: "hummer_stream_produced_rows_total", stat: "stream_produced_rows", kind: counter, help: "Rows yielded by stream cursors.",
		value: func(*scrape) float64 { return float64(plan.StreamProducedRows()) }},
	// Go runtime health, so a latency regression can be correlated
	// with GC or goroutine leaks without attaching pprof.
	{name: "hummer_goroutines", kind: gauge, help: "Goroutines currently live.",
		value: func(*scrape) float64 { return float64(runtime.NumGoroutine()) }},
	{name: "hummer_heap_alloc_bytes", kind: gauge, help: "Bytes of allocated heap objects.",
		value: func(sc *scrape) float64 { return float64(sc.mem.HeapAlloc) }},
	{name: "hummer_gc_cycles_total", kind: counter, help: "Completed GC cycles.",
		value: func(sc *scrape) float64 { return float64(sc.mem.NumGC) }},
	{name: "hummer_gc_pause_seconds_total", kind: counter, help: "Cumulative GC stop-the-world pause time.",
		value: func(sc *scrape) float64 { return float64(sc.mem.PauseTotalNs) / float64(time.Second) }},
	// The DB's own counters; /v1/stats carries them whole under "db".
	{name: "hummer_db_queries_total", kind: counter, help: "Statements executed by the DB (all entry points).",
		value: func(sc *scrape) float64 { return float64(sc.db.Queries) }},
	{name: "hummer_db_fuse_queries_total", kind: counter, help: "Statements that ran the fusion pipeline.",
		value: func(sc *scrape) float64 { return float64(sc.db.FuseQueries) }},
	{name: "hummer_db_query_errors_total", kind: counter, help: "Statements that failed.",
		value: func(sc *scrape) float64 { return float64(sc.db.QueryErrors) }},
	{name: "hummer_sources", kind: gauge, help: "Registered data sources.",
		value: func(sc *scrape) float64 { return float64(len(sc.db.Sources)) }},
	{name: "hummer_cache_entries", kind: gauge, help: "Resident artifact-cache entries.",
		value: func(sc *scrape) float64 { return float64(sc.db.Cache.Entries) }},
	{name: "hummer_cache_waiters", kind: gauge, help: "Callers currently blocked on in-flight cache computations.",
		value: func(sc *scrape) float64 { return float64(sc.db.Cache.Waiters) }},
	{name: "hummer_cache_hits_total", kind: counter, label: "kind", help: "Artifact-cache lookups served from a completed entry.",
		series: cacheSeries(func(ks qcache.KindStats) uint64 { return ks.Hits })},
	{name: "hummer_cache_misses_total", kind: counter, label: "kind", help: "Artifact-cache lookups that computed the artifact.",
		series: cacheSeries(func(ks qcache.KindStats) uint64 { return ks.Misses })},
	{name: "hummer_cache_shared_total", kind: counter, label: "kind", help: "Artifact-cache lookups that piggybacked on an in-flight computation.",
		series: cacheSeries(func(ks qcache.KindStats) uint64 { return ks.Shared })},
	{name: "hummer_cache_evictions_total", kind: counter, label: "kind", help: "Artifact-cache entries evicted to respect the capacity.",
		series: cacheSeries(func(ks qcache.KindStats) uint64 { return ks.Evictions })},
	{name: "hummer_cse_shared_total", stat: "cse_shared_total", kind: counter, help: "Plain-SQL source subtrees served from (or piggybacked on) another statement's materialization.",
		value: func(sc *scrape) float64 { return float64(sc.db.CSEShared) }},
	{name: "hummer_cse_unique_total", stat: "cse_unique_total", kind: counter, help: "Plain-SQL source subtrees that had to materialize (one scan/join/filter pass each).",
		value: func(sc *scrape) float64 { return float64(sc.db.CSEUnique) }},
}

// cacheSeries reads one per-kind artifact-cache counter, kinds sorted.
func cacheSeries(get func(qcache.KindStats) uint64) func(*scrape) []series {
	return func(sc *scrape) []series {
		kinds := slices.Sorted(maps.Keys(sc.db.Cache.Kinds))
		out := make([]series, len(kinds))
		for i, k := range kinds {
			out[i] = series{label: string(k), value: float64(get(sc.db.Cache.Kinds[k]))}
		}
		return out
	}
}

// classes snapshots the per-class latency histograms.
func (sc *scrape) classes() []series {
	return []series{
		{label: "query", hist: sc.latQuery.Snapshot()},
		{label: "stream", hist: sc.latStream.Snapshot()},
		{label: "batch", hist: sc.latBatch.Snapshot()},
	}
}

// statementTotals sums the per-class latency histograms' Count and
// Seconds; the sum has no buckets. Every executed statement, failed
// ones included, is observed in exactly one of them, so the sums are
// the statement count and the total statement time.
func (sc *scrape) statementTotals() (total obs.HistSnapshot) {
	for _, c := range sc.classes() {
		total.Count += c.hist.Count
		total.Seconds += c.hist.Seconds
	}
	return total
}

// handleMetrics renders metricTable in the Prometheus text exposition
// format (version 0.0.4). A labelled family with no series yet is left
// out, header included.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sc := &scrape{Server: s, db: s.db.Stats()}
	runtime.ReadMemStats(&sc.mem)
	var b strings.Builder
	for _, m := range metricTable {
		if m.name == "" {
			continue
		}
		var members []series
		if m.series != nil {
			if members = m.series(sc); len(members) == 0 {
				continue
			}
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		if m.series == nil {
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.value(sc)))
		}
		for _, x := range members {
			if m.kind == histogram {
				writeHistogram(&b, m.name, m.label, x.label, x.hist)
			} else {
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", m.name, m.label, x.label, formatFloat(x.value))
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// handleStats renders metricTable's /v1/stats entries as one JSON
// object, with the DB's own stats under "db".
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sc := &scrape{Server: s, db: s.db.Stats()}
	out := map[string]any{"db": sc.db}
	for _, m := range metricTable {
		switch {
		case m.stat == "":
		case m.series == nil:
			out[m.stat] = m.value(sc)
		default:
			sums := make(map[string]LatencySummary)
			for _, x := range m.series(sc) {
				sums[x.label] = LatencySummary{
					Count:      x.hist.Count,
					SumSeconds: x.hist.Seconds,
					P50Seconds: x.hist.Quantile(0.50),
					P95Seconds: x.hist.Quantile(0.95),
					P99Seconds: x.hist.Quantile(0.99),
				}
			}
			out[m.stat] = sums
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// formatFloat renders a float the way Prometheus expects: plain
// decimal, no exponent for the magnitudes we emit.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// latencyBounds are the fixed upper bounds (seconds, inclusive) of the
// query-latency and phase-duration histogram buckets. The range spans
// sub-millisecond warm cache hits up to the 60s default query timeout;
// one extra implicit +Inf bucket catches everything beyond. Fixed
// buckets are what lets a load generator cross-check its client-side
// percentiles against the server's.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LatencySummary is the /v1/stats rendering of one latency histogram:
// count, total and estimated percentiles (interpolated from the fixed
// buckets, so they carry bucket-resolution error — the exact
// distribution is on /metrics for anyone who wants to do better).
type LatencySummary struct {
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// writeHistogram renders one labelled histogram series in the
// Prometheus text format: cumulative _bucket lines (le-convention,
// ending at +Inf), then _sum and _count. The family's HELP/TYPE header
// is the caller's.
func writeHistogram(b *strings.Builder, family, labelKey, labelValue string, snap obs.HistSnapshot) {
	label := fmt.Sprintf("%s=%q", labelKey, labelValue)
	var cum uint64
	for i, n := range snap.Buckets {
		cum += n
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = strconv.FormatFloat(snap.Bounds[i], 'g', -1, 64) // shortest exact decimal
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", family, label, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s} %s\n", family, label, formatFloat(snap.Seconds))
	fmt.Fprintf(b, "%s_count{%s} %d\n", family, label, snap.Count)
}
