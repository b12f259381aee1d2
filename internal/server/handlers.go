package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hummer"
	"hummer/internal/faultinject"
	"hummer/internal/obs"
)

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

// handleGetSource answers {"alias", "generation", "fingerprint",
// "columns", "row_count", "rows"}: the source's schema, size and its
// first limit rows (all of them without ?limit=).
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
	writeBody(w, func(b []byte) []byte {
		b = appendString(append(b, `{"alias":`...), alias)
		b = strconv.AppendUint(append(b, `,"generation":`...), s.db.SourceGeneration(alias), 10)
		b = appendString(append(b, `,"fingerprint":`...), fp)
		b = appendStrings(append(b, `,"columns":`...), rel.Schema().Names())
		b = strconv.AppendInt(append(b, `,"row_count":`...), int64(rel.Len()), 10)
		b = append(b, `,"rows":[`...)
		for i := range limit {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRow(b, rel.Row(i))
		}
		return append(b, "]}"...)
	})
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

// errHandled marks a request whose response was already written by a
// helper (decode failure, validation error) — the caller just returns.
var errHandled = errors.New("server: response already written")

// handleQuery answers {"columns", "rows", "row_count"}, then "fusion",
// the pipeline summary, for fusion statements (warm cache hits
// included: slim entries precompute it; a plain read is never padded
// with it); "lineage", one entry per row and cell, only when requested
// and the statement produced lineage (fusion statements with at least
// one row); and "trace_id", the request ID that fetches the span tree
// from GET /v1/trace, only when the request set trace:true.
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
		s.writeQueryError(w, r, err)
		return
	}
	writeBody(w, func(b []byte) []byte {
		b = appendResult(append(b, '{'), res, req.Lineage, false)
		if req.Trace {
			b = appendString(append(b, `,"trace_id":`...), obs.RequestID(r.Context()))
		}
		return append(b, '}')
	})
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
// row ({"type":"row","row":[...]}, with "lineage" when requested),
// appended straight from the row; then exactly one trailer: a summary
// on success, an error if the stream died mid-flight (after the 200
// status was already committed — clients must treat an error trailer,
// or a missing trailer, as a failed stream).
type streamRecord struct {
	Type     string                `json:"type"`
	Columns  []string              `json:"columns,omitempty"`
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
		s.writeQueryError(w, r, err)
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
	line := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(line)
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
		b := append((*line)[:0], `{"type":"row"`...)
		if row := rows.Row(); len(row) > 0 {
			b = appendRow(append(b, `,"row":`...), row)
		}
		if lin := rows.RowLineage(); req.Lineage && len(lin) > 0 {
			b = appendLineageRow(append(b, `,"lineage":`...), cols, lin)
		}
		*line = append(b, "}\n"...)
		if _, writeErr = w.Write(*line); writeErr != nil {
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
		// The status is committed: the failure, a contained panic in
		// the cursor included, surfaces as the in-band error trailer.
		s.classify(r, rows.Err())
		_ = enc.Encode(streamRecord{Type: "error", Error: rows.Err().Error()})
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

// handleBatch executes several statements in order, each under its
// own deadline (the server query timeout, optionally tightened by the
// request's timeout_ms), and returns one result or error per
// statement — a slow or failing statement never takes down its
// neighbours, only cancelling the whole request does. The response is
// always 200 when the batch itself was well-formed; per-statement
// failures live in the results: {"results":[...]}, one object per
// statement holding either the statement's result fields (as
// /v1/query's, with empty columns and rows left out) or its "error",
// then its "seconds".
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	releaseSlot, ok := s.admit(w, r)
	if !ok {
		return
	}

	var req batchRequest
	var results []hummer.BatchResult
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
		results = s.db.QueryBatch(r.Context(), req.Statements, opts...)
		for _, br := range results {
			s.latBatch.Observe(br.Elapsed)
			if br.Err != nil {
				s.classify(r, br.Err)
				s.batchErrors.Add(1)
			}
		}
		return nil
	}()
	if errors.Is(err, errHandled) {
		return
	}
	writeBody(w, func(b []byte) []byte {
		b = append(b, `{"results":[`...)
		for i, br := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			if br.Err != nil {
				b = appendString(append(b, `"row_count":0,"error":`...), br.Err.Error())
			} else {
				b = appendResult(b, br.Result, req.Lineage, true)
			}
			b = appendFloat(append(b, `,"seconds":`...), br.Elapsed.Seconds())
			b = append(b, '}')
		}
		return append(b, "]}"...)
	})
}

// --- Functions and cache ----------------------------------------------------

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"functions": s.db.ResolutionFunctions()})
}

func (s *Server) handlePurgeCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"purged": s.db.PurgeCache()})
}
