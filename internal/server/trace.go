package server

import (
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"hummer/internal/obs"
)

// tracedPath reports whether requests to path get a per-query span
// trace. Only query-shaped work is traced: admin and metrics endpoints
// have no pipeline phases worth a span tree, and tracing them would
// churn the ring.
func tracedPath(path string) bool {
	switch path {
	case "/v1/query", "/v1/query/stream", "/v1/batch":
		return true
	}
	return false
}

// maxTraceLimit caps how many traces one GET /v1/trace returns; the
// ring itself is the real bound, this just rejects absurd asks.
const maxTraceLimit = 1024

// traceListResponse is the GET /v1/trace body.
type traceListResponse struct {
	Traces []*obs.TraceView `json:"traces"`
}

// handleTrace serves the most recent query traces, newest first.
// ?limit=N trims the list; ?id=<request id> returns just that trace
// (404 when it has already been evicted from the ring).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 || n > maxTraceLimit {
			writeError(w, http.StatusBadRequest, "limit must be an integer in [0,%d]: %q", maxTraceLimit, raw)
			return
		}
		limit = n
	}
	views := s.ring.Snapshot(limit)
	if views == nil {
		views = []*obs.TraceView{}
	}
	if id := r.URL.Query().Get("id"); id != "" {
		for _, v := range views {
			if v.TraceID == id {
				writeJSON(w, http.StatusOK, traceListResponse{Traces: []*obs.TraceView{v}})
				return
			}
		}
		writeError(w, http.StatusNotFound, "no trace %q in the ring (kept: last %d)", id, s.ringSize)
		return
	}
	writeJSON(w, http.StatusOK, traceListResponse{Traces: views})
}

// recordTrace runs after a traced request finishes: feeds the phase
// histograms and, when the query was slow enough, logs the full span
// tree. Called from the handler's deferred function, so the span tree
// is quiescent.
func (s *Server) recordTrace(r *http.Request, tr *obs.Trace) {
	v := tr.View()
	s.observePhases(v.Root)
	s.logSlowQuery(r, v)
}

// observePhases walks the span tree and records every span's duration
// into its phase histogram. The root span is skipped: its name is the
// request path (unbounded-ish label cardinality) and its duration is
// already covered by hummer_query_duration_seconds.
func (s *Server) observePhases(root *obs.SpanView) {
	var walk func(sv *obs.SpanView)
	walk = func(sv *obs.SpanView) {
		s.phaseHist(sv.Name).Observe(time.Duration(sv.DurationSeconds * float64(time.Second)))
		for _, child := range sv.Children {
			walk(child)
		}
	}
	for _, child := range root.Children {
		walk(child)
	}
}

// phaseHist returns the histogram for one phase name, creating it on
// first use. Phase names come from the fixed vocabulary compiled into
// the pipeline, so the map stays small.
func (s *Server) phaseHist(name string) *obs.DurationHist {
	s.phaseMu.Lock()
	defer s.phaseMu.Unlock()
	h := s.phases[name]
	if h == nil {
		h = obs.NewDurationHist(latencyBounds)
		s.phases[name] = h
	}
	return h
}

// phaseSeries snapshots the phase histograms, sorted by phase name.
// The map is copied under the lock so the (slower) snapshotting runs
// outside it.
func (s *Server) phaseSeries() []series {
	s.phaseMu.Lock()
	phases := maps.Clone(s.phases)
	s.phaseMu.Unlock()
	out := make([]series, 0, len(phases))
	for _, name := range slices.Sorted(maps.Keys(phases)) {
		out = append(out, series{label: name, hist: phases[name].Snapshot()})
	}
	return out
}

// logSlowQuery logs the full span tree of a query that crossed the
// slow-query threshold — the one-stop answer to "where did that
// request spend its time" without a second round-trip to /v1/trace.
func (s *Server) logSlowQuery(r *http.Request, v *obs.TraceView) {
	if s.slowQuery <= 0 {
		return
	}
	d := time.Duration(v.DurationSeconds * float64(time.Second))
	if d < s.slowQuery {
		return
	}
	s.logger.Warn("slow query",
		"request_id", v.TraceID,
		"method", r.Method,
		"path", r.URL.Path,
		"duration_seconds", v.DurationSeconds,
		"threshold_seconds", s.slowQuery.Seconds(),
		"trace", v)
}
