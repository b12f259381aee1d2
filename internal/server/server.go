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
//
// # Files
//
//	server.go      the Server, its options, the Handler middleware, health
//	admission.go   inflight admission, slot deadlines, Retry-After, failure classes
//	handlers.go    the sources, query, stream, batch, functions and cache endpoints
//	encode.go      result rows, lineage and summaries appended as JSON from the values
//	exposition.go  metricTable, each metric declared once; /metrics and /v1/stats
//	trace.go       per-query span traces, phase histograms, the slow-query log
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hummer"
	"hummer/internal/fault"
	"hummer/internal/obs"
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

	// Query lifecycle, admission, containment, streaming and batch
	// counters and gauges; metricTable says what each one counts.
	inflight        atomic.Int64
	rejected        atomic.Uint64
	clientGone      atomic.Uint64
	timeouts        atomic.Uint64
	bodyTimeouts    atomic.Uint64
	queryErrors     atomic.Uint64
	queuedNow       atomic.Int64
	queuedTotal     atomic.Uint64
	queueTimeouts   atomic.Uint64
	internalErrors  atomic.Uint64
	streamedQueries atomic.Uint64
	streamedRows    atomic.Uint64
	batchRequests   atomic.Uint64
	batchErrors     atomic.Uint64

	// Per-class latency histograms over latencyBounds: materialized
	// /v1/query statements, /v1/query/stream statements (whole-stream
	// wall clock) and individual /v1/batch statements, so client-side
	// load measurements have server-side numbers to cross-check
	// against.
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
	// traces, keyed by span name; the key set is the fixed
	// instrumentation vocabulary, so cardinality is bounded.
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
