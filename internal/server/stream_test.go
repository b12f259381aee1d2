package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hummer"
)

// TestQueryStreamNDJSONGolden pins the wire format of
// /v1/query/stream: a schema record, one record per row in result
// order, and a summary trailer carrying the fusion numbers — each on
// its own NDJSON line.
func TestQueryStreamNDJSONGolden(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("stream: status %d: %s", status, body)
	}
	want := strings.Join([]string{
		`{"type":"schema","columns":["Name","Age"]}`,
		`{"type":"row","row":["Aisha Khan",23]}`,
		`{"type":"row","row":["Jonathan Smith",22]}`,
		`{"type":"row","row":["Lena Fischer",20]}`,
		`{"type":"row","row":["Maria Garcia",24]}`,
		`{"type":"row","row":["Wei Chen",21]}`,
		`{"type":"summary","row_count":5,"fusion":{"sources":2,"merged_rows":7,"correspondences":3,"clusters":5,"duplicate_pairs":2,"borderline_pairs":0}}`,
	}, "\n") + "\n"
	if string(body) != want {
		t.Errorf("stream body:\n%s\nwant:\n%s", body, want)
	}

	// Byte-identical when served warm from the slim fused entry.
	status, warm := doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK || !bytes.Equal(warm, body) {
		t.Errorf("warm stream differs (status %d):\n%s", status, warm)
	}

	// Stats surfaced the streaming traffic.
	status, stats := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var st struct {
		StreamedQueries uint64 `json:"streamed_queries"`
		StreamedRows    uint64 `json:"streamed_rows"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.StreamedQueries != 2 || st.StreamedRows != 10 {
		t.Errorf("streamed = %d queries / %d rows, want 2 / 10", st.StreamedQueries, st.StreamedRows)
	}
}

// TestQueryStreamPlainAndLineage: plain SELECTs stream with a plain
// summary (no fusion block), and lineage:true attaches per-row
// lineage records to fusion streams.
func TestQueryStreamPlainAndLineage(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		queryRequest{SQL: "SELECT Name FROM EE_Student ORDER BY Name LIMIT 2"})
	if status != http.StatusOK {
		t.Fatalf("plain stream: %d %s", status, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 { // schema + 2 rows + summary
		t.Fatalf("plain stream lines = %d: %s", len(lines), body)
	}
	if strings.Contains(lines[len(lines)-1], "fusion") {
		t.Errorf("plain summary carries a fusion block: %s", lines[len(lines)-1])
	}
	if strings.Contains(string(body), `"lineage"`) {
		t.Errorf("plain stream carries lineage: %s", body)
	}

	status, body = doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		queryRequest{SQL: fuseQuery, Lineage: true})
	if status != http.StatusOK {
		t.Fatalf("lineage stream: %d %s", status, body)
	}
	rowLines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var rec struct {
			Type    string `json:"type"`
			Lineage []struct {
				Column  string   `json:"column"`
				Origins []string `json:"origins"`
			} `json:"lineage"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if rec.Type == "row" {
			rowLines++
			if len(rec.Lineage) == 0 {
				t.Errorf("row record without lineage: %s", line)
			}
		}
	}
	if rowLines != 5 {
		t.Errorf("row records = %d, want 5", rowLines)
	}

	// Errors before the first byte stay ordinary JSON responses.
	status, body = doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: "SELECT x FROM ghost"})
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("error")) {
		t.Errorf("bad stream statement: %d %s", status, body)
	}
}

// streamLines splits an NDJSON body into its raw lines.
func streamLines(t *testing.T, body []byte) []string {
	t.Helper()
	return strings.Split(strings.TrimSpace(string(body)), "\n")
}

// rowRecords extracts the raw `"type":"row"` lines of a stream body,
// byte-for-byte.
func rowRecords(t *testing.T, body []byte) []string {
	t.Helper()
	var rows []string
	for _, line := range streamLines(t, body) {
		if strings.HasPrefix(line, `{"type":"row"`) {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestQueryStreamResumeOffsetPrefixProperty pins the resume contract:
// for every offset k, the row records of a stream requested with
// offset=k are byte-identical to the full stream's row records from
// position k on, and the summary's row_count reflects the emitted
// records. A client whose connection died after reading k rows
// re-requests with offset=k and splices the bytes together.
func TestQueryStreamResumeOffsetPrefixProperty(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	for _, sql := range []string{
		fuseQuery, // fusion: 5 deterministic rows
		"SELECT Name FROM EE_Student ORDER BY Name", // plain: 4 rows
	} {
		status, full := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
			streamRequest{queryRequest: queryRequest{SQL: sql}})
		if status != http.StatusOK {
			t.Fatalf("full stream: %d %s", status, full)
		}
		fullRows := rowRecords(t, full)
		for k := 0; k <= len(fullRows); k++ {
			status, resumed := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
				streamRequest{queryRequest: queryRequest{SQL: sql}, Offset: k})
			if status != http.StatusOK {
				t.Fatalf("offset %d: %d %s", k, status, resumed)
			}
			got := rowRecords(t, resumed)
			want := fullRows[k:]
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("offset %d rows:\n%s\nwant:\n%s", k, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			last := streamLines(t, resumed)
			if !strings.Contains(last[len(last)-1], fmt.Sprintf(`"row_count":%d`, len(want))) {
				t.Errorf("offset %d summary = %s, want row_count %d", k, last[len(last)-1], len(want))
			}
		}
	}
}

// TestQueryStreamLimitWindow: limit caps the emitted row records,
// limit+offset slice an arbitrary window, a limit-cut fusion stream
// still carries its fusion summary block, and limit=0 is a valid
// probe (schema + summary only).
func TestQueryStreamLimitWindow(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, full := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		streamRequest{queryRequest: queryRequest{SQL: fuseQuery}})
	if status != http.StatusOK {
		t.Fatalf("full stream: %d %s", status, full)
	}
	fullRows := rowRecords(t, full)

	two := 2
	status, windowed := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		streamRequest{queryRequest: queryRequest{SQL: fuseQuery}, Offset: 1, Limit: &two})
	if status != http.StatusOK {
		t.Fatalf("window stream: %d %s", status, windowed)
	}
	got := rowRecords(t, windowed)
	want := fullRows[1:3]
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("window rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	trailer := streamLines(t, windowed)
	last := trailer[len(trailer)-1]
	if !strings.Contains(last, `"row_count":2`) || !strings.Contains(last, `"fusion"`) {
		t.Errorf("limit-cut fusion summary = %s, want row_count 2 with a fusion block", last)
	}

	zero := 0
	status, probe := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		streamRequest{queryRequest: queryRequest{SQL: fuseQuery}, Limit: &zero})
	if status != http.StatusOK {
		t.Fatalf("probe stream: %d %s", status, probe)
	}
	lines := streamLines(t, probe)
	if len(lines) != 2 || !strings.Contains(lines[1], `"row_count":0`) {
		t.Errorf("limit=0 probe = %s, want schema + row_count 0 summary", probe)
	}
}

// TestQueryStreamWindowValidation: negative limit/offset are 400s
// before any execution.
func TestQueryStreamWindowValidation(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	neg := -1
	for name, req := range map[string]streamRequest{
		"negative offset": {queryRequest: queryRequest{SQL: fuseQuery}, Offset: -3},
		"negative limit":  {queryRequest: queryRequest{SQL: fuseQuery}, Limit: &neg},
	} {
		status, body := doJSON(t, ts, http.MethodPost, "/v1/query/stream", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, status, body)
		}
	}
}

// TestBatchExecutesStatementsIndependently: one POST /v1/batch runs
// several statements; a failing statement reports its error in place
// without harming its neighbours.
func TestBatchExecutesStatementsIndependently(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{Statements: []string{
		"SELECT Name FROM EE_Student ORDER BY Name LIMIT 1",
		"SELECT broken FROM ghost",
		fuseQuery,
	}})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].RowCount != 1 {
		t.Errorf("statement 0 = %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Errorf("statement 1 must fail: %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" || resp.Results[2].RowCount != 5 || resp.Results[2].Fusion == nil {
		t.Errorf("statement 2 = %+v", resp.Results[2])
	}

	status, stats := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var st struct {
		BatchRequests        uint64 `json:"batch_requests"`
		BatchStatements      uint64 `json:"batch_statements"`
		BatchStatementErrors uint64 `json:"batch_statement_errors"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.BatchRequests != 1 || st.BatchStatements != 3 || st.BatchStatementErrors != 1 {
		t.Errorf("batch stats = %+v", st)
	}

	// Each statement counts as a query, and the failed one as a query
	// error too, exactly like a failed /v1/query.
	status, metrics := doJSON(t, ts, http.MethodGet, "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		"\nhummer_queries_total 3\n",
		"\nhummer_query_errors_total 1\n",
		"\nhummer_batch_statement_errors_total 1\n",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// TestBatchPerStatementDeadline: the request's timeout_ms bounds each
// statement individually — the slow statement dies of its own
// deadline while the statements around it succeed with fresh budgets.
func TestBatchPerStatementDeadline(t *testing.T) {
	db := hummer.New()
	registerStudentTables(t, db)
	db.OnDuplicates(func(det *hummer.Detection, merged *hummer.Relation) []int {
		time.Sleep(150 * time.Millisecond)
		return nil
	})
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(ts.Close)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{
		Statements: []string{
			"SELECT Name FROM EE_Student",
			fuseQuery, // slow: the wizard hook outlives the deadline
			"SELECT FullName FROM CS_Students",
		},
		TimeoutMillis: 40,
	})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("statement 0 failed: %s", resp.Results[0].Error)
	}
	if !strings.Contains(resp.Results[1].Error, "deadline") {
		t.Errorf("statement 1 error = %q, want a deadline error", resp.Results[1].Error)
	}
	if resp.Results[2].Error != "" {
		t.Errorf("statement 2 failed after the timed-out one: %s", resp.Results[2].Error)
	}
}

// registerStudentTables registers the test sources directly on a DB
// (for servers built around a pre-configured DB).
func registerStudentTables(t *testing.T, db *hummer.DB) {
	t.Helper()
	ee := hummer.NewTable("EE_Student", "Name", "Age", "City").
		AddText("Jonathan Smith", "21", "Berlin").
		AddText("Maria Garcia", "24", "Hamburg").
		AddText("Wei Chen", "21", "Munich").
		AddText("Aisha Khan", "23", "Cologne").
		Build()
	cs := hummer.NewTable("CS_Students", "FullName", "Semester", "Years", "Town").
		AddText("Jonathan Smith", "4", "22", "Berlin").
		AddText("Wei Chen", "2", "21", "Munich").
		AddText("Lena Fischer", "1", "20", "Stuttgart").
		Build()
	if err := db.RegisterTable("EE_Student", ee); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("CS_Students", cs); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSlotDeadlineDoesNotCancelMidBatch: the admission-slot
// deadline (one query timeout) bounds only the body read of a batch.
// A batch whose total wall-clock exceeds one query timeout must NOT
// be cancelled mid-flight as long as each statement stays inside its
// own budget — the armed connection read deadline is released before
// execution starts, so net/http's background read can't fail and
// cancel the request context.
func TestBatchSlotDeadlineDoesNotCancelMidBatch(t *testing.T) {
	db := hummer.New()
	registerStudentTables(t, db)
	db.OnDuplicates(func(det *hummer.Detection, merged *hummer.Relation) []int {
		time.Sleep(60 * time.Millisecond)
		return nil
	})
	// Slot/query timeout 150ms; three ~60ms fusion statements total
	// ~180ms — beyond one slot budget, well inside three per-statement
	// ones.
	ts := httptest.NewServer(New(db, WithQueryTimeout(150*time.Millisecond)).Handler())
	t.Cleanup(ts.Close)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{
		Statements: []string{fuseQuery, fuseQuery, fuseQuery},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Errorf("statement %d cancelled mid-batch: %s", i, r.Error)
		}
	}
}

// TestBatchValidation: malformed batches are rejected before any
// statement runs.
func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: %d %s", status, body)
	}
	status, body = doJSON(t, ts, http.MethodPost, "/v1/batch",
		batchRequest{Statements: []string{"SELECT Name FROM EE_Student", "  "}})
	if status != http.StatusBadRequest {
		t.Errorf("blank statement: %d %s", status, body)
	}
	many := make([]string, maxBatchStatements+1)
	for i := range many {
		many[i] = "SELECT Name FROM EE_Student"
	}
	status, body = doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{Statements: many})
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch: %d %s", status, body)
	}
}

// TestPlainSelectOmitsAnnotationFields: the satellite wire-format fix
// — a plain SELECT's /v1/query response must not serialize empty
// lineage/fusion fields, even when lineage was requested; the
// annotation payloads are opt-in projections, not a tax on every
// read.
func TestPlainSelectOmitsAnnotationFields(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query",
		queryRequest{SQL: "SELECT Name FROM EE_Student", Lineage: true})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	for _, key := range []string{`"lineage"`, `"fusion"`, `"pipeline"`} {
		if bytes.Contains(body, []byte(key)) {
			t.Errorf("plain SELECT response serializes %s: %s", key, body)
		}
	}
	// A zero-row fusion result must not serialize an empty lineage
	// array either.
	status, body = doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{
		SQL:     `SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (Name) HAVING Name = 'Nobody'`,
		Lineage: true,
	})
	if status != http.StatusOK {
		t.Fatalf("zero-row fusion: %d %s", status, body)
	}
	if bytes.Contains(body, []byte(`"lineage"`)) {
		t.Errorf("zero-row fusion response serializes lineage: %s", body)
	}
}
