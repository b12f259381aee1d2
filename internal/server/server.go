// Package server implements hummerd's HTTP/JSON API: a long-lived
// query service over a shared hummer.DB, the interactive-system face
// of the HumMer demo scaled to many concurrent clients. Clients
// register data sources, issue FUSE BY (and plain SELECT) queries,
// inspect lineage and resolution functions, and observe the versioned
// artifact cache through the stats endpoint.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz              liveness + uptime
//	GET    /metrics              Prometheus text exposition
//	GET    /v1/stats             server counters, DB stats, cache traffic
//	GET    /v1/sources           registered sources with generations
//	POST   /v1/sources           register (or replace) a source
//	GET    /v1/sources/{alias}   schema + rows of one source
//	POST   /v1/query             execute a statement
//	POST   /v1/query/stream      execute a statement, stream NDJSON rows
//	POST   /v1/batch             execute several statements, one result each
//	GET    /v1/functions         resolution-function names
//	DELETE /v1/cache             purge the artifact cache
//
// Queries run concurrently: the underlying DB serializes nothing but
// the metadata maps, and the artifact cache's singleflight ensures a
// thundering herd of identical queries computes each expensive
// artifact (fused results, DUMAS matches, duplicate detections,
// parsed plans) once.
//
// # Query lifecycle
//
// Every query runs under the request's context, bounded by the
// configured query timeout: a client that hangs up cancels its
// pipeline mid-flight (reported with the Nginx-style 499 status), an
// elapsed timeout aborts it with 504, and WithMaxInflight bounds
// concurrent query admission. Over-cap requests are rejected with 429
// by default; WithAdmissionWait adds a small bounded wait queue in
// front of the reject, so short bursts absorb instead of failing —
// a queued request waits at most the configured bound (tightened by
// its own deadline), then gets 503. Every overload rejection carries a
// Retry-After header.
//
// # Fault containment
//
// Handlers are a containment boundary: a panic anywhere below (and
// not already contained by a deeper boundary — parshard workers, the
// stream cursor, qcache leaders) is recovered in the Handler
// middleware, converted to a *fault.InternalError, counted, and
// answered with 500 when the response is still unwritten. The process
// survives, the DB stays usable, and subsequent queries return
// byte-identical results to an unfaulted run. Mid-stream panics
// surface as a truncated NDJSON response (no trailer), which the
// stream protocol already defines as a failed stream.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hummer"
	"hummer/internal/fault"
	"hummer/internal/faultinject"
	"hummer/internal/obs"
	"hummer/internal/plan"
	"hummer/internal/qcache"
	"hummer/internal/value"
)

// maxBodyBytes caps request bodies: inline sources are meant for
// quickstarts and tests, not bulk loading.
const maxBodyBytes = 16 << 20

// StatusClientClosedRequest is the Nginx-convention status for "the
// client closed the connection before the response was ready"; the
// Go standard library has no name for it.
const StatusClientClosedRequest = 499

// Server is the hummerd HTTP API over one shared DB.
type Server struct {
	db       *hummer.DB
	mux      *http.ServeMux
	start    time.Time
	requests atomic.Uint64
	// allowPathSources permits POST /v1/sources to register
	// server-local files by path. Off by default: an unauthenticated
	// client that can name arbitrary paths and then read the rows
	// back through GET /v1/sources/{alias} is a file-disclosure
	// vector. Startup flags register files regardless — the operator
	// launching the process already has the files.
	allowPathSources bool

	// queryTimeout bounds each query's execution; 0 means unbounded.
	queryTimeout time.Duration
	// maxInflight caps concurrently executing queries; 0 means
	// unbounded. slots is the admission semaphore (nil when unbounded):
	// one token per executing query.
	maxInflight int64
	slots       chan struct{}
	// admissionQueue/admissionWait configure the bounded wait queue in
	// front of the cap: up to admissionQueue over-cap requests may wait
	// up to admissionWait (tightened by their own deadline) for a slot
	// before the 503. Zero values keep pure immediate-reject.
	admissionQueue int
	admissionWait  time.Duration

	// Query lifecycle counters (exposed by /v1/stats and /metrics).
	inflight     atomic.Int64
	rejected     atomic.Uint64
	clientGone   atomic.Uint64
	timeouts     atomic.Uint64
	bodyTimeouts atomic.Uint64
	queryErrors  atomic.Uint64

	// Admission wait-queue traffic and fault containment (exposed
	// alongside the above).
	queuedNow      atomic.Int64
	queuedTotal    atomic.Uint64
	queueTimeouts  atomic.Uint64
	internalErrors atomic.Uint64

	// Streaming and batch traffic (exposed alongside the above).
	streamedQueries atomic.Uint64
	streamedRows    atomic.Uint64
	batchRequests   atomic.Uint64
	batchStatements atomic.Uint64
	batchErrors     atomic.Uint64

	// Per-class latency histograms over latencyBounds: materialized
	// /v1/query statements, /v1/query/stream statements (whole-stream
	// wall clock) and individual /v1/batch statements. Exposed as
	// hummer_query_duration_seconds{class=...} on /metrics and as
	// percentile summaries in /v1/stats, so client-side load
	// measurements have server-side numbers to cross-check against.
	latQuery  *obs.DurationHist
	latStream *obs.DurationHist
	latBatch  *obs.DurationHist

	// logger is the structured request/containment logger; defaults to
	// slog.Default() so a bare New keeps logging where log.Printf did.
	logger *slog.Logger
	// ring holds the last ringSize query traces for GET /v1/trace; nil
	// disables per-query tracing entirely (the span no-op path).
	ring     *obs.Ring
	ringSize int
	// slowQuery, when positive, logs the full span tree of any query
	// request whose wall time meets the threshold.
	slowQuery time.Duration
	// phases accumulates per-phase duration histograms from finished
	// traces — the hummer_phase_duration_seconds series. Keyed by span
	// name; the key set is the fixed instrumentation vocabulary, so
	// cardinality is bounded.
	phaseMu sync.Mutex
	phases  map[string]*obs.DurationHist
}

// Option configures a Server.
type Option func(*Server)

// AllowPathSources lets API clients register csv/json/xml sources by
// server-local path. Enable only when every client is trusted with
// read access to the server's filesystem.
func AllowPathSources() Option {
	return func(s *Server) { s.allowPathSources = true }
}

// WithQueryTimeout bounds every query's execution: when d elapses the
// pipeline is cancelled mid-flight (cooperatively, with all worker
// goroutines joined) and the client receives a 504. d <= 0 means no
// timeout.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.queryTimeout = d
		}
	}
}

// WithMaxInflight caps the number of concurrently executing queries.
// Requests over the cap are rejected immediately with 429 — bounded
// admission instead of unbounded queueing — so a burst degrades
// loudly and recoverably rather than piling up work for clients that
// may already be gone. n <= 0 means unbounded. Combine with
// WithAdmissionWait to absorb short bursts in a bounded queue before
// the reject.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxInflight = int64(n)
		}
	}
}

// WithAdmissionWait puts a small bounded wait queue in front of the
// inflight cap: up to queue over-cap requests wait up to maxWait for
// a slot instead of bouncing straight to 429. The wait is
// deadline-aware — a request never queues longer than its own
// context's deadline permits — and a wait that expires answers 503
// with a Retry-After. queue <= 0 or maxWait <= 0 keeps pure
// immediate-reject. No effect without WithMaxInflight.
func WithAdmissionWait(queue int, maxWait time.Duration) Option {
	return func(s *Server) {
		if queue > 0 && maxWait > 0 {
			s.admissionQueue = queue
			s.admissionWait = maxWait
		}
	}
}

// DefaultTraceRing is how many finished query traces GET /v1/trace
// retains when WithTraceRing is not given.
const DefaultTraceRing = 128

// WithLogger installs the structured logger for request, containment
// and slow-query logging. nil keeps slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithTraceRing sets how many finished query span traces are retained
// for GET /v1/trace. n <= 0 disables per-query tracing entirely: no
// trace rides the request context and the pipeline's span calls take
// their zero-allocation no-op path.
func WithTraceRing(n int) Option {
	return func(s *Server) { s.ringSize = n }
}

// WithSlowQueryLog logs the full span tree of any query request whose
// wall time meets d. d <= 0 disables the slow-query log. Requires
// tracing (a disabled ring leaves nothing to dump).
func WithSlowQueryLog(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.slowQuery = d
		}
	}
}

// New builds a Server over db.
func New(db *hummer.DB, opts ...Option) *Server {
	s := &Server{
		db:        db,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		logger:    slog.Default(),
		ringSize:  DefaultTraceRing,
		latQuery:  obs.NewDurationHist(latencyBounds),
		latStream: obs.NewDurationHist(latencyBounds),
		latBatch:  obs.NewDurationHist(latencyBounds),
		phases:    make(map[string]*obs.DurationHist),
	}
	for _, o := range opts {
		o(s)
	}
	if s.maxInflight > 0 {
		s.slots = make(chan struct{}, s.maxInflight)
	}
	s.ring = obs.NewRing(s.ringSize)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/sources", s.handleListSources)
	s.mux.HandleFunc("POST /v1/sources", s.handleRegisterSource)
	s.mux.HandleFunc("GET /v1/sources/{alias}", s.handleGetSource)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/functions", s.handleFunctions)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/cache", s.handlePurgeCache)
	return s
}

// Handler returns the routable handler: request counting, request-ID
// minting, per-query trace lifecycle, body capping, and the
// handler-level fault containment boundary.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		reqID := obs.NewRequestID()
		w.Header().Set("X-Hummer-Request-Id", reqID)
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		var tr *obs.Trace
		if s.ring != nil && tracedPath(r.URL.Path) {
			tr = obs.NewTrace(reqID, r.Method+" "+r.URL.Path)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		rw := &recoverWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			// Publish the trace even for requests that died on a panic
			// or disconnect: partial trees are exactly what a postmortem
			// wants. Safe here — the handler (and thus any stream drain)
			// has returned, so the span tree is quiescent.
			if tr != nil {
				tr.Finish()
				s.ring.Add(tr)
				s.recordTrace(r, tr)
			}
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// net/http's own deliberate abort token — not a fault.
				panic(rec)
			}
			ie := fault.NewInternal("server.handler", rec)
			s.internalErrors.Add(1)
			s.logger.Error("contained panic in handler",
				"request_id", reqID,
				"method", r.Method,
				"path", r.URL.Path,
				"panic", fmt.Sprint(ie.Recovered),
				"stack", string(ie.Stack))
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, "%v", ie)
			}
			// Response already committed (e.g. mid-NDJSON-stream): the
			// truncated body — no trailer record — already signals a
			// failed stream to the client; nothing more can be sent.
		}()
		s.mux.ServeHTTP(rw, r)
	})
}

// recoverWriter tracks whether a response has been committed, so the
// containment boundary knows if a 500 can still be written. Unwrap
// keeps http.ResponseController features (read deadlines) working
// through the wrap, and Flush passes streaming flushes along.
type recoverWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *recoverWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *recoverWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *recoverWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *recoverWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// --- Responses --------------------------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxErr.Limit)
			return false
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// The per-slot read deadline fired while the client was
			// still sending: a server-side timeout, not a syntax
			// error — classify and count it as such.
			s.bodyTimeouts.Add(1)
			writeError(w, http.StatusRequestTimeout, "timed out reading the request body")
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// --- Health and stats -------------------------------------------------------

type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      uint64  `json:"requests"`
	// InflightQueries is the number of queries executing right now;
	// RejectedQueries counts 429s from the inflight cap.
	InflightQueries int64  `json:"inflight_queries"`
	RejectedQueries uint64 `json:"rejected_queries"`
	// StreamedQueries counts /v1/query/stream statements that began
	// streaming; StreamedRows the NDJSON row records they emitted.
	StreamedQueries uint64 `json:"streamed_queries"`
	StreamedRows    uint64 `json:"streamed_rows"`
	// BatchRequests counts /v1/batch calls; BatchStatements the
	// statements they carried; BatchStatementErrors the statements
	// that failed (each statement fails independently).
	BatchRequests        uint64 `json:"batch_requests"`
	BatchStatements      uint64 `json:"batch_statements"`
	BatchStatementErrors uint64 `json:"batch_statement_errors"`
	// AdmissionWaiters is the number of requests queued for a slot
	// right now (WithAdmissionWait); AdmissionWaits counts requests
	// that entered the queue; AdmissionWaitTimeouts counts waits that
	// expired into a 503.
	AdmissionWaiters      int64  `json:"admission_waiters"`
	AdmissionWaits        uint64 `json:"admission_waits"`
	AdmissionWaitTimeouts uint64 `json:"admission_wait_timeouts"`
	// ClientDisconnects counts queries cancelled because the client
	// hung up (499); QueryTimeouts counts queries aborted by the
	// query timeout (504); BodyReadTimeouts counts requests whose
	// body read outlived the per-slot deadline (408).
	ClientDisconnects uint64 `json:"client_disconnects"`
	QueryTimeouts     uint64 `json:"query_timeouts"`
	BodyReadTimeouts  uint64 `json:"body_read_timeouts"`
	// PanicsRecovered counts panics converted to internal errors
	// anywhere in the process (the containment layer's proof of work);
	// InternalErrors counts requests that failed on one.
	PanicsRecovered uint64 `json:"panics_recovered"`
	InternalErrors  uint64 `json:"internal_errors"`
	// QuerySeconds is the total wall-clock time spent executing
	// statements (sum over /v1/query, /v1/query/stream and /v1/batch
	// statements, including failed ones).
	QuerySeconds float64 `json:"query_seconds"`
	// StreamProducedRows counts rows yielded by stream cursors (as
	// opposed to StreamedRows, which counts NDJSON records the HTTP
	// layer emitted).
	StreamProducedRows uint64 `json:"stream_produced_rows"`
	// Latency summarizes the per-class latency histograms: keys are
	// "query" (materialized statements), "stream" (whole-stream wall
	// clock) and "batch" (individual batch statements); percentiles
	// are interpolated from the fixed /metrics buckets.
	Latency map[string]LatencySummary `json:"latency"`
	// Phases summarizes the per-phase span-duration histograms fed by
	// query tracing, keyed by phase name ("plan", "match.score", …).
	// Empty until the first traced query completes.
	Phases map[string]LatencySummary `json:"phases"`
	// CSESharedTotal / CSEUniqueTotal mirror the /metrics counters of
	// the planner's cross-statement CSE tier: source subtrees served
	// from (or piggybacked on) another statement's materialization vs
	// subtrees that had to materialize. Their ratio is the batch
	// sharing rate TestBatchOverlappingSourcesOnePass verifies.
	CSESharedTotal uint64       `json:"cse_shared_total"`
	CSEUniqueTotal uint64       `json:"cse_unique_total"`
	DB             hummer.Stats `json:"db"`
}

// statementTotals sums the three per-class latency histograms. Every
// executed statement, failed ones included, is observed in exactly one
// of them, so the sums are the statement count and the total statement
// time.
func (s *Server) statementTotals() (count uint64, seconds float64) {
	for _, h := range []*obs.DurationHist{s.latQuery, s.latStream, s.latBatch} {
		snap := h.Snapshot()
		count += snap.Count
		seconds += snap.Seconds
	}
	return count, seconds
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	_, querySeconds := s.statementTotals()
	phases := make(map[string]LatencySummary)
	for name, h := range s.phaseSnapshots() {
		phases[name] = latencySummary(h.Snapshot())
	}
	dbStats := s.db.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds:         time.Since(s.start).Seconds(),
		Requests:              s.requests.Load(),
		InflightQueries:       s.inflight.Load(),
		RejectedQueries:       s.rejected.Load(),
		StreamedQueries:       s.streamedQueries.Load(),
		StreamedRows:          s.streamedRows.Load(),
		BatchRequests:         s.batchRequests.Load(),
		BatchStatements:       s.batchStatements.Load(),
		BatchStatementErrors:  s.batchErrors.Load(),
		AdmissionWaiters:      s.queuedNow.Load(),
		AdmissionWaits:        s.queuedTotal.Load(),
		AdmissionWaitTimeouts: s.queueTimeouts.Load(),
		ClientDisconnects:     s.clientGone.Load(),
		QueryTimeouts:         s.timeouts.Load(),
		BodyReadTimeouts:      s.bodyTimeouts.Load(),
		PanicsRecovered:       fault.Recovered(),
		InternalErrors:        s.internalErrors.Load(),
		QuerySeconds:          querySeconds,
		StreamProducedRows:    plan.StreamProducedRows(),
		Latency: map[string]LatencySummary{
			"query":  latencySummary(s.latQuery.Snapshot()),
			"stream": latencySummary(s.latStream.Snapshot()),
			"batch":  latencySummary(s.latBatch.Snapshot()),
		},
		Phases:         phases,
		CSESharedTotal: dbStats.CSEShared,
		CSEUniqueTotal: dbStats.CSEUnique,
		DB:             dbStats,
	})
}

// --- Sources ----------------------------------------------------------------

func (s *Server) handleListSources(w http.ResponseWriter, r *http.Request) {
	out := s.db.Stats().Sources
	if out == nil {
		out = []hummer.SourceStatus{}
	}
	writeJSON(w, http.StatusOK, out)
}

// registerRequest registers one source. Kind selects the loader:
// "csv", "json" and "xml" reference server-local files by path;
// "inline" carries the data in the request (columns + rows of raw
// text cells, typed like CSV cells).
type registerRequest struct {
	Alias     string     `json:"alias"`
	Kind      string     `json:"kind"`
	Path      string     `json:"path,omitempty"`
	RecordTag string     `json:"record_tag,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	// Replace overwrites an existing alias (bumping its generation)
	// instead of failing on conflicting data.
	Replace bool `json:"replace,omitempty"`
}

func (s *Server) handleRegisterSource(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Alias == "" {
		writeError(w, http.StatusBadRequest, "alias is required")
		return
	}
	kind := strings.ToLower(req.Kind)
	if !s.allowPathSources && kind != "inline" && kind != "" {
		writeError(w, http.StatusForbidden,
			"path-based source registration is disabled on this server (use kind \"inline\", or start hummerd with -allow-path-sources)")
		return
	}
	var err error
	switch kind {
	case "csv":
		if req.Replace {
			err = s.db.ReplaceCSV(req.Alias, req.Path)
		} else {
			err = s.db.RegisterCSV(req.Alias, req.Path)
		}
	case "json":
		if req.Replace {
			err = s.db.ReplaceJSON(req.Alias, req.Path)
		} else {
			err = s.db.RegisterJSON(req.Alias, req.Path)
		}
	case "xml":
		if req.Replace {
			err = s.db.ReplaceXML(req.Alias, req.Path, req.RecordTag)
		} else {
			err = s.db.RegisterXML(req.Alias, req.Path, req.RecordTag)
		}
	case "inline":
		var rel *hummer.Relation
		rel, err = buildInline(req)
		if err == nil {
			if req.Replace {
				err = s.db.ReplaceTable(req.Alias, rel)
			} else {
				err = s.db.RegisterTable(req.Alias, rel)
			}
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown source kind %q (want csv, json, xml or inline)", req.Kind)
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, hummer.ErrAliasConflict) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, hummer.SourceStatus{
		Alias:      req.Alias,
		Generation: s.db.SourceGeneration(req.Alias),
	})
}

func buildInline(req registerRequest) (*hummer.Relation, error) {
	if len(req.Columns) == 0 {
		return nil, fmt.Errorf("inline source %q needs columns", req.Alias)
	}
	b := hummer.NewTable(req.Alias, req.Columns...)
	for i, row := range req.Rows {
		if len(row) != len(req.Columns) {
			return nil, fmt.Errorf("inline source %q: row %d has %d cells, want %d",
				req.Alias, i, len(row), len(req.Columns))
		}
		b.AddText(row...)
	}
	return b.Build(), nil
}

type sourceResponse struct {
	Alias       string   `json:"alias"`
	Generation  uint64   `json:"generation"`
	Fingerprint string   `json:"fingerprint"`
	Columns     []string `json:"columns"`
	RowCount    int      `json:"row_count"`
	Rows        [][]any  `json:"rows"`
}

func (s *Server) handleGetSource(w http.ResponseWriter, r *http.Request) {
	alias := r.PathValue("alias")
	rel, err := s.db.Table(alias)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	limit := rel.Len()
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", q)
			return
		}
		if n < limit {
			limit = n
		}
	}
	fp, err := s.db.SourceFingerprint(alias)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := sourceResponse{
		Alias:       alias,
		Generation:  s.db.SourceGeneration(alias),
		Fingerprint: fp,
		Columns:     rel.Schema().Names(),
		RowCount:    rel.Len(),
		Rows:        make([][]any, 0, limit),
	}
	for i := 0; i < limit; i++ {
		resp.Rows = append(resp.Rows, rowJSON(rel.Row(i)))
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- Query ------------------------------------------------------------------

type queryRequest struct {
	SQL string `json:"sql"`
	// Lineage adds per-cell provenance to the response (fusion
	// queries only).
	Lineage bool `json:"lineage,omitempty"`
	// Trace echoes the request ID as trace_id in the response body so
	// the caller can fetch the span tree from GET /v1/trace. Off by
	// default: the response stays byte-identical to an untraced run.
	Trace bool `json:"trace,omitempty"`
}

// cellLineage is one cell's provenance: the contributing source rows.
type cellLineage struct {
	Column  string   `json:"column"`
	Origins []string `json:"origins"`
}

type queryResponse struct {
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
	// Fusion carries the pipeline summary for fusion statements —
	// warm cache hits included (slim entries precompute it). Omitted
	// for plain SELECTs: the wire format matches the opt-in
	// semantics, annotation-style metadata never pads a plain read.
	Fusion *hummer.FusionSummary `json:"fusion,omitempty"`
	// Lineage is present only when requested AND the statement
	// produced lineage (fusion statements with at least one row).
	Lineage [][]cellLineage `json:"lineage,omitempty"`
	// TraceID is present only when the request set trace:true — it is
	// the request ID, usable to fetch the span tree from GET /v1/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// errHandled marks a request whose response was already written by a
// helper (decode failure, validation error) — the caller just returns.
var errHandled = errors.New("server: response already written")

// retryAfterSeconds is the Retry-After hint on overload responses
// (429 queue-full, 503 wait-expired, 504 timeout): how long a
// well-behaved client should back off before retrying. One slot
// turnover is the honest estimate — the configured query timeout when
// there is one, else a nominal second.
func (s *Server) retryAfterSeconds() int {
	if s.queryTimeout > 0 {
		if secs := int(math.Ceil(s.queryTimeout.Seconds())); secs > 0 {
			return secs
		}
	}
	return 1
}

// writeOverload answers an overload rejection: Retry-After plus the
// JSON error body.
func (s *Server) writeOverload(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, status, format, args...)
}

// admit takes an inflight-admission slot, returning its release (to
// be called exactly once) — or ok=false with the rejection already
// written. Admission runs before the (up to maxBodyBytes) body is
// even read: the cap exists to shed work under overload, so an
// over-limit request must not cost a 16MB decode on its way to the
// 429.
//
// At the cap the request bounces straight to 429 unless
// WithAdmissionWait configured a queue; then up to admissionQueue
// requests wait — bounded by admissionWait and by the request's own
// deadline — for a slot to free. A wait that expires answers 503, a
// client that hangs up while queued 499, and an over-full queue 429;
// all overload statuses carry Retry-After.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.slots == nil {
		s.inflight.Add(1)
		return func() { s.inflight.Add(-1) }, true
	}
	granted := func() func() {
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return granted(), true
	default:
	}

	wait := s.admissionWait
	if dl, hasDL := r.Context().Deadline(); hasDL {
		// Deadline-aware: never hold a request in the queue past the
		// point where its caller has already given up.
		if remaining := time.Until(dl); remaining < wait {
			wait = remaining
		}
	}
	if s.admissionQueue <= 0 || wait <= 0 {
		s.rejected.Add(1)
		s.writeOverload(w, http.StatusTooManyRequests,
			"server is at its inflight query limit (%d); retry later", s.maxInflight)
		return nil, false
	}
	if n := s.queuedNow.Add(1); n > int64(s.admissionQueue) {
		s.queuedNow.Add(-1)
		s.rejected.Add(1)
		s.writeOverload(w, http.StatusTooManyRequests,
			"server is at its inflight query limit (%d) and the admission queue is full; retry later", s.maxInflight)
		return nil, false
	}
	s.queuedTotal.Add(1)
	defer s.queuedNow.Add(-1)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return granted(), true
	case <-timer.C:
		s.rejected.Add(1)
		s.queueTimeouts.Add(1)
		s.writeOverload(w, http.StatusServiceUnavailable,
			"no query slot freed within %s; retry later", wait.Round(time.Millisecond))
		return nil, false
	case <-r.Context().Done():
		s.clientGone.Add(1)
		writeError(w, StatusClientClosedRequest, "client closed request while queued for admission")
		return nil, false
	}
}

// slotContext budgets one admission slot: it bounds the request's
// body read and returns a ctx carrying the same deadline for the
// execution, so a slot is never held longer than the query timeout.
// The returned release must be called exactly once; it clears the
// read deadline and cancels the ctx.
func (s *Server) slotContext(w http.ResponseWriter, r *http.Request) (context.Context, func()) {
	ctx := r.Context()
	if s.queryTimeout <= 0 {
		return ctx, func() {}
	}
	deadline := time.Now().Add(s.queryTimeout)
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(deadline)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	return ctx, func() {
		_ = rc.SetReadDeadline(time.Time{})
		cancel()
	}
}

// classifyQueryError writes the error response for a failed query:
// 499 when the client hung up, 504 on the query timeout (with a
// Retry-After hint), 500 for a contained panic, 400 otherwise. Counts
// accordingly.
func (s *Server) classifyQueryError(w http.ResponseWriter, r *http.Request, err error) {
	s.queryErrors.Add(1)
	var internal *fault.InternalError
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case canceled && r.Context().Err() != nil:
		// The query actually died of cancellation AND the client
		// hung up; it will likely never read this, but the status
		// documents the outcome in logs and proxies. A genuine
		// query error that merely races a disconnect keeps its own
		// classification below.
		s.clientGone.Add(1)
		writeError(w, StatusClientClosedRequest, "client closed request: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		s.writeOverload(w, http.StatusGatewayTimeout, "query exceeded the %s timeout", s.queryTimeout)
	case errors.As(err, &internal):
		// A panic contained at a deeper boundary (parshard, qcache
		// leader, stream cursor): one failed query, process intact.
		s.internalErrors.Add(1)
		s.logger.Error("query failed on contained panic",
			"request_id", obs.RequestID(r.Context()),
			"error", internal.Error(),
			"stack", string(internal.Stack))
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	releaseSlot, ok := s.admit(w, r)
	if !ok {
		return
	}

	// The slot covers the body read and the query execution — the
	// phases overload protection must bound — and is released before
	// the response is encoded, so a slow-reading client cannot pin
	// admission capacity while the DB sits idle.
	var req queryRequest
	res, err := func() (*hummer.Result, error) {
		defer releaseSlot()
		ctx, release := s.slotContext(w, r)
		defer release()
		if !s.decodeBody(w, r, &req) {
			return nil, errHandled
		}
		if strings.TrimSpace(req.SQL) == "" {
			writeError(w, http.StatusBadRequest, "sql is required")
			return nil, errHandled
		}

		// The query runs under the request context — a hung-up client
		// cancels the pipeline mid-flight — bounded by the shared
		// deadline above. The server never needs the pipeline
		// intermediates (the slim Summary feeds the fusion block) and
		// skips the lineage copy when the client didn't ask.
		start := time.Now()
		var res *hummer.Result
		err := faultinject.Hit(faultinject.SiteServerQuery)
		if err == nil {
			res, err = s.db.QueryContext(ctx, req.SQL,
				hummer.WithoutTrace(), hummer.WithLineage(req.Lineage))
		}
		s.latQuery.Observe(time.Since(start))
		return res, err
	}()
	if errors.Is(err, errHandled) {
		return
	}
	if err != nil {
		s.classifyQueryError(w, r, err)
		return
	}
	resp := queryResponse{
		Columns:  res.Rel.Schema().Names(),
		Rows:     make([][]any, 0, res.Rel.Len()),
		RowCount: res.Rel.Len(),
		Fusion:   res.Summary,
	}
	if req.Trace {
		resp.TraceID = obs.RequestID(r.Context())
	}
	for i := 0; i < res.Rel.Len(); i++ {
		resp.Rows = append(resp.Rows, rowJSON(res.Rel.Row(i)))
	}
	if req.Lineage && len(res.Lineage) > 0 {
		cols := res.Rel.Schema().Names()
		resp.Lineage = make([][]cellLineage, len(res.Lineage))
		for i, rowLin := range res.Lineage {
			resp.Lineage[i] = lineageRowJSON(cols, rowLin)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// lineageRowJSON renders one row's per-cell lineage.
func lineageRowJSON(cols []string, rowLin []hummer.LineageSet) []cellLineage {
	cells := make([]cellLineage, 0, len(rowLin))
	for j, set := range rowLin {
		cl := cellLineage{Column: cols[j], Origins: []string{}}
		for _, o := range set.Origins() {
			cl.Origins = append(cl.Origins, fmt.Sprintf("%s:%d", o.Source, o.Row))
		}
		cells = append(cells, cl)
	}
	return cells
}

// --- Streaming ---------------------------------------------------------------

// streamFlushRows is how many NDJSON row records are written between
// explicit flushes: one flush per record would cost a write syscall
// per row; one per response would defeat streaming.
const streamFlushRows = 64

// streamRequest is the /v1/query/stream body: a statement plus the
// resume window. Offset skips the first Offset result rows before any
// row record is emitted; Limit (when present) caps how many row
// records are emitted. A client whose stream died after reading k row
// records resumes with offset=k and receives exactly the records the
// full stream would have carried from position k on (the results are
// deterministic, so the resumed bytes are the missing suffix); the
// summary's row_count reflects the records actually emitted by this
// response, not the full result.
type streamRequest struct {
	queryRequest
	Limit  *int `json:"limit,omitempty"`
	Offset int  `json:"offset,omitempty"`
}

// streamRecord is one NDJSON line of a /v1/query/stream response. The
// first record is the schema ("type":"schema"), then one record per
// row, then exactly one trailer: a summary on success, an error if
// the stream died mid-flight (after the 200 status was already
// committed — clients must treat an error trailer, or a missing
// trailer, as a failed stream).
type streamRecord struct {
	Type     string                `json:"type"`
	Columns  []string              `json:"columns,omitempty"`
	Row      []any                 `json:"row,omitempty"`
	Lineage  []cellLineage         `json:"lineage,omitempty"`
	RowCount *int                  `json:"row_count,omitempty"`
	Fusion   *hummer.FusionSummary `json:"fusion,omitempty"`
	Error    string                `json:"error,omitempty"`
}

// handleQueryStream executes one statement and streams the result as
// NDJSON (application/x-ndjson): each row is pulled from the engine
// as it is encoded, so a large result never needs a second
// materialized copy in the response path. Errors before the first
// byte are ordinary JSON error responses (same classification as
// /v1/query); later failures arrive in-band as the trailer record.
// The admission slot is held for the whole stream — the query
// executes as the response is written.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	releaseSlot, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer releaseSlot()
	ctx, release := s.slotContext(w, r)
	defer release()

	var req streamRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, "sql is required")
		return
	}
	if req.Offset < 0 {
		writeError(w, http.StatusBadRequest, "offset must be >= 0, got %d", req.Offset)
		return
	}
	if req.Limit != nil && *req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be >= 0, got %d", *req.Limit)
		return
	}

	start := time.Now()
	var rows *hummer.Rows
	var cols []string
	err := faultinject.Hit(faultinject.SiteServerStream)
	if err == nil {
		rows, err = s.db.QueryRows(ctx, req.SQL,
			hummer.WithoutTrace(), hummer.WithLineage(req.Lineage))
	}
	if err == nil {
		defer rows.Close()
		// Columns executes the statement far enough to stream (for
		// fusion: runs the pipeline), so statement errors are still
		// classifiable as a clean non-200 here.
		cols, err = rows.Columns()
	}
	if err != nil {
		s.latStream.Observe(time.Since(start))
		s.classifyQueryError(w, r, err)
		return
	}
	s.streamedQueries.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	writeErr := enc.Encode(streamRecord{Type: "schema", Columns: cols})
	flush()
	skip := req.Offset
	n := 0
	for writeErr == nil && (req.Limit == nil || n < *req.Limit) && rows.Next() {
		if skip > 0 {
			// The resume window: skipped rows are pulled (and, for plain
			// SELECTs, computed) but never serialized — the wire carries
			// exactly the suffix the client asked for.
			skip--
			continue
		}
		rec := streamRecord{Type: "row", Row: rowJSON(rows.Row())}
		if lin := rows.RowLineage(); req.Lineage && lin != nil {
			rec.Lineage = lineageRowJSON(cols, lin)
		}
		if writeErr = enc.Encode(rec); writeErr != nil {
			break // client gone: stop pulling
		}
		if n++; n%streamFlushRows == 0 {
			flush()
		}
	}
	s.streamedRows.Add(uint64(n))
	s.latStream.Observe(time.Since(start))
	switch {
	case writeErr != nil:
		// The transport died mid-stream; nothing more can reach the
		// client. Count it like a disconnect of a materialized query.
		s.queryErrors.Add(1)
		s.clientGone.Add(1)
	case rows.Err() != nil:
		err := rows.Err()
		s.queryErrors.Add(1)
		var internal *fault.InternalError
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
		} else if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
			s.clientGone.Add(1)
		} else if errors.As(err, &internal) {
			// The cursor contained a panic mid-stream; the status is
			// committed, so the containment surfaces as the in-band
			// error trailer.
			s.internalErrors.Add(1)
		}
		_ = enc.Encode(streamRecord{Type: "error", Error: err.Error()})
	default:
		// Close before the trailer: when Limit cut the drain short the
		// cursor is not drained, and Summary only becomes available
		// once the stream is drained or closed. Close is idempotent —
		// the deferred one becomes a no-op.
		_ = rows.Close()
		count := n
		_ = enc.Encode(streamRecord{Type: "summary", RowCount: &count, Fusion: rows.Summary()})
	}
	flush()
}

// --- Batch -------------------------------------------------------------------

// maxBatchStatements bounds one /v1/batch request: each statement can
// cost a full query timeout, and the admission slot is held for the
// whole batch.
const maxBatchStatements = 64

type batchRequest struct {
	Statements []string `json:"statements"`
	// Lineage adds per-cell provenance to fusion statements' results.
	Lineage bool `json:"lineage,omitempty"`
	// TimeoutMillis bounds each statement individually; it can only
	// tighten the server's query timeout, never extend it.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// batchStatementResponse is one statement's outcome. Error and the
// result fields are mutually exclusive.
type batchStatementResponse struct {
	Columns  []string              `json:"columns,omitempty"`
	Rows     [][]any               `json:"rows,omitempty"`
	RowCount int                   `json:"row_count"`
	Fusion   *hummer.FusionSummary `json:"fusion,omitempty"`
	Lineage  [][]cellLineage       `json:"lineage,omitempty"`
	Error    string                `json:"error,omitempty"`
	Seconds  float64               `json:"seconds"`
}

type batchResponse struct {
	Results []batchStatementResponse `json:"results"`
}

// handleBatch executes several statements in order, each under its
// own deadline (the server query timeout, optionally tightened by the
// request's timeout_ms), and returns one result or error per
// statement — a slow or failing statement never takes down its
// neighbours, only cancelling the whole request does. The response is
// always 200 when the batch itself was well-formed; per-statement
// failures live in the results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	releaseSlot, ok := s.admit(w, r)
	if !ok {
		return
	}

	var resp batchResponse
	err := func() error {
		defer releaseSlot()
		if err := faultinject.Hit(faultinject.SiteServerBatch); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return errHandled
		}
		// Unlike /v1/query, the slot deadline bounds only the body
		// read here; each statement then runs under its own deadline
		// over the request's context. The deadline (and the
		// connection read deadline it arms) is released immediately
		// after the decode: net/http keeps a background read open
		// during the handler, and an armed read deadline outliving
		// one queryTimeout would fail that read and cancel the
		// request context mid-batch — aborting statements that were
		// well inside their own budgets.
		_, release := s.slotContext(w, r)
		var req batchRequest
		ok := s.decodeBody(w, r, &req)
		release()
		if !ok {
			return errHandled
		}
		if len(req.Statements) == 0 {
			writeError(w, http.StatusBadRequest, "statements are required")
			return errHandled
		}
		if len(req.Statements) > maxBatchStatements {
			writeError(w, http.StatusBadRequest,
				"batch carries %d statements, limit %d", len(req.Statements), maxBatchStatements)
			return errHandled
		}
		for i, q := range req.Statements {
			if strings.TrimSpace(q) == "" {
				writeError(w, http.StatusBadRequest, "statement %d is empty", i)
				return errHandled
			}
		}

		perStmt := s.queryTimeout
		if d := time.Duration(req.TimeoutMillis) * time.Millisecond; d > 0 && (perStmt <= 0 || d < perStmt) {
			perStmt = d
		}
		opts := []hummer.QueryOption{hummer.WithoutTrace(), hummer.WithLineage(req.Lineage)}
		if perStmt > 0 {
			opts = append(opts, hummer.WithTimeout(perStmt))
		}

		s.batchRequests.Add(1)
		results := s.db.QueryBatch(r.Context(), req.Statements, opts...)
		resp.Results = make([]batchStatementResponse, len(results))
		for i, br := range results {
			s.batchStatements.Add(1)
			s.latBatch.Observe(br.Elapsed)
			item := &resp.Results[i]
			item.Seconds = br.Elapsed.Seconds()
			if br.Err != nil {
				s.queryErrors.Add(1)
				s.batchErrors.Add(1)
				item.Error = br.Err.Error()
				continue
			}
			res := br.Result
			item.Columns = res.Rel.Schema().Names()
			item.Rows = make([][]any, 0, res.Rel.Len())
			item.RowCount = res.Rel.Len()
			item.Fusion = res.Summary
			for j := 0; j < res.Rel.Len(); j++ {
				item.Rows = append(item.Rows, rowJSON(res.Rel.Row(j)))
			}
			if req.Lineage && len(res.Lineage) > 0 {
				item.Lineage = make([][]cellLineage, len(res.Lineage))
				for j, rowLin := range res.Lineage {
					item.Lineage[j] = lineageRowJSON(item.Columns, rowLin)
				}
			}
		}
		return nil
	}()
	if errors.Is(err, errHandled) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- Functions and cache ----------------------------------------------------

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"functions": s.db.ResolutionFunctions()})
}

func (s *Server) handlePurgeCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"purged": s.db.PurgeCache()})
}

// --- Metrics ----------------------------------------------------------------

// handleMetrics serves the Prometheus text exposition format
// (version 0.0.4): query counts and latency, the inflight gauge,
// admission rejections, cancellation/timeout counts, streaming/batch
// traffic and the per-kind artifact-cache traffic, including the
// fused-result tier.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.db.Stats()
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	histFamily := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}

	queries, _ := s.statementTotals()
	counter("hummer_requests_total", "HTTP requests received.", s.requests.Load())
	counter("hummer_queries_total", "Statements executed via /v1/query, /v1/query/stream and /v1/batch.", queries)
	counter("hummer_query_errors_total", "Queries that returned an error (including cancellations and timeouts).", s.queryErrors.Load())
	counter("hummer_queries_rejected_total", "Queries rejected by the inflight admission cap (HTTP 429).", s.rejected.Load())
	counter("hummer_query_client_disconnects_total", "Queries cancelled because the client closed the connection (HTTP 499).", s.clientGone.Load())
	counter("hummer_query_timeouts_total", "Queries aborted by the query timeout (HTTP 504).", s.timeouts.Load())
	counter("hummer_body_read_timeouts_total", "Requests whose body read outlived the per-slot deadline (HTTP 408).", s.bodyTimeouts.Load())
	counter("hummer_streamed_queries_total", "Statements that began streaming via /v1/query/stream.", s.streamedQueries.Load())
	counter("hummer_streamed_rows_total", "NDJSON row records emitted by /v1/query/stream.", s.streamedRows.Load())
	counter("hummer_batch_requests_total", "Batch requests executed via /v1/batch.", s.batchRequests.Load())
	counter("hummer_batch_statements_total", "Statements executed inside /v1/batch requests.", s.batchStatements.Load())
	counter("hummer_batch_statement_errors_total", "Batch statements that failed (each statement fails independently).", s.batchErrors.Load())
	counter("hummer_panics_recovered_total", "Panics contained anywhere in the process and converted to internal errors.", fault.Recovered())
	counter("hummer_internal_errors_total", "Requests that failed on a contained panic (HTTP 500 or an error trailer).", s.internalErrors.Load())
	counter("hummer_admission_waits_total", "Requests that queued for an admission slot.", s.queuedTotal.Load())
	counter("hummer_admission_wait_timeouts_total", "Admission waits that expired into a 503.", s.queueTimeouts.Load())
	gauge("hummer_admission_waiters", "Requests queued for an admission slot right now.", float64(s.queuedNow.Load()))
	gauge("hummer_inflight_queries", "Queries executing right now.", float64(s.inflight.Load()))
	gauge("hummer_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	// Query latency as fixed-bucket histograms, one series set per
	// query class: histogram_quantile() works on these, _sum over
	// _count still gives the mean, and the buckets are what client-side
	// load-test percentiles are cross-checked against.
	histFamily("hummer_query_duration_seconds", "Wall-clock statement execution time by query class (query = /v1/query, stream = whole /v1/query/stream, batch = individual /v1/batch statements).")
	for _, c := range []struct {
		name string
		h    *obs.DurationHist
	}{{"query", s.latQuery}, {"stream", s.latStream}, {"batch", s.latBatch}} {
		writeHistogram(&b, "hummer_query_duration_seconds", "class", c.name, c.h.Snapshot())
	}

	// Per-phase span durations from query tracing: one label value per
	// pipeline phase ("plan", "match.score", …). Empty until the first
	// traced query completes; disabled entirely with -trace-ring 0.
	phases := s.phaseSnapshots()
	if len(phases) > 0 {
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		histFamily("hummer_phase_duration_seconds", "Pipeline phase durations from per-query span tracing.")
		for _, name := range names {
			writeHistogram(&b, "hummer_phase_duration_seconds", "phase", name, phases[name].Snapshot())
		}
	}

	counter("hummer_stream_produced_rows_total", "Rows yielded by stream cursors.", plan.StreamProducedRows())

	// Go runtime health: cheap reads, scraped alongside everything else
	// so a latency regression can be correlated with GC or goroutine
	// leaks without attaching pprof.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("hummer_goroutines", "Goroutines currently live.", float64(runtime.NumGoroutine()))
	gauge("hummer_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	counter("hummer_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))
	fmt.Fprintf(&b, "# HELP hummer_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n# TYPE hummer_gc_pause_seconds_total counter\n%s %s\n",
		"hummer_gc_pause_seconds_total", formatFloat(float64(ms.PauseTotalNs)/float64(time.Second)))

	counter("hummer_db_queries_total", "Statements executed by the DB (all entry points).", st.Queries)
	counter("hummer_db_fuse_queries_total", "Statements that ran the fusion pipeline.", st.FuseQueries)
	counter("hummer_db_query_errors_total", "Statements that failed.", st.QueryErrors)
	gauge("hummer_sources", "Registered data sources.", float64(len(st.Sources)))

	gauge("hummer_cache_entries", "Resident artifact-cache entries.", float64(st.Cache.Entries))
	gauge("hummer_cache_waiters", "Callers currently blocked on in-flight cache computations.", float64(st.Cache.Waiters))
	kinds := make([]string, 0, len(st.Cache.Kinds))
	for k := range st.Cache.Kinds {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	cacheCounter := func(name, help string, get func(qcache.KindStats) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%s{kind=%q} %d\n", name, k, get(st.Cache.Kinds[qcache.Kind(k)]))
		}
	}
	if len(kinds) > 0 {
		cacheCounter("hummer_cache_hits_total", "Artifact-cache lookups served from a completed entry.",
			func(ks qcache.KindStats) uint64 { return ks.Hits })
		cacheCounter("hummer_cache_misses_total", "Artifact-cache lookups that computed the artifact.",
			func(ks qcache.KindStats) uint64 { return ks.Misses })
		cacheCounter("hummer_cache_shared_total", "Artifact-cache lookups that piggybacked on an in-flight computation.",
			func(ks qcache.KindStats) uint64 { return ks.Shared })
		cacheCounter("hummer_cache_evictions_total", "Artifact-cache entries evicted to respect the capacity.",
			func(ks qcache.KindStats) uint64 { return ks.Evictions })
	}

	counter("hummer_cse_shared_total",
		"Plain-SQL source subtrees served from (or piggybacked on) another statement's materialization.",
		st.CSEShared)
	counter("hummer_cse_unique_total",
		"Plain-SQL source subtrees that had to materialize (one scan/join/filter pass each).",
		st.CSEUnique)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// formatFloat renders a float the way Prometheus expects: plain
// decimal, no exponent for the magnitudes we emit.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// rowJSON renders one row with JSON-native cells: NULL → null,
// numerics and booleans natively, times as RFC 3339, strings as-is.
func rowJSON(row hummer.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = cellJSON(v)
	}
	return out
}

func cellJSON(v hummer.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindBool:
		return v.Bool()
	case value.KindTime:
		return v.Time().Format(time.RFC3339)
	default:
		return v.Str()
	}
}
