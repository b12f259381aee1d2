package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hummer"
)

// newLifecycleServer builds a test server over a caller-provided DB
// with server options — the harness for timeout/admission tests.
func newLifecycleServer(t *testing.T, db *hummer.DB, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(db, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// studentFixture registers the running example directly on a DB.
func studentFixture(t *testing.T) *hummer.DB {
	t.Helper()
	db := hummer.New()
	ee := hummer.NewTable("EE_Student", "Name", "Age", "City").
		AddText("Jonathan Smith", "21", "Berlin").
		AddText("Maria Garcia", "24", "Hamburg").
		Build()
	cs := hummer.NewTable("CS_Students", "FullName", "Years", "Town").
		AddText("Jonathan Smith", "22", "Berlin").
		AddText("Lena Fischer", "20", "Stuttgart").
		Build()
	if err := db.RegisterTable("EE_Student", ee); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("CS_Students", cs); err != nil {
		t.Fatal(err)
	}
	return db
}

// statsResponse decodes the /v1/stats keys the lifecycle, fault and
// chaos tests assert on.
type statsResponse struct {
	Requests              uint64       `json:"requests"`
	InflightQueries       int64        `json:"inflight_queries"`
	RejectedQueries       uint64       `json:"rejected_queries"`
	StreamedQueries       uint64       `json:"streamed_queries"`
	BatchRequests         uint64       `json:"batch_requests"`
	BatchStatements       uint64       `json:"batch_statements"`
	AdmissionWaiters      int64        `json:"admission_waiters"`
	AdmissionWaits        uint64       `json:"admission_waits"`
	AdmissionWaitTimeouts uint64       `json:"admission_wait_timeouts"`
	ClientDisconnects     uint64       `json:"client_disconnects"`
	QueryTimeouts         uint64       `json:"query_timeouts"`
	PanicsRecovered       uint64       `json:"panics_recovered"`
	InternalErrors        uint64       `json:"internal_errors"`
	DB                    hummer.Stats `json:"db"`
}

func serverStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	status, body := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d: %s", status, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats: %v in %s", err, body)
	}
	return st
}

// TestQueryTimeoutReturns504: a query that outlives the configured
// timeout is cancelled mid-flight and reported as a gateway timeout,
// and the timeout counter increments.
func TestQueryTimeoutReturns504(t *testing.T) {
	db := studentFixture(t)
	// The wizard hook outlives the timeout, so the pipeline's next
	// cooperative check observes the elapsed deadline.
	db.OnCorrespondences(func(alias string, proposed []hummer.Correspondence) []hummer.Correspondence {
		time.Sleep(100 * time.Millisecond)
		return proposed
	})
	ts := newLifecycleServer(t, db, WithQueryTimeout(15*time.Millisecond))

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, body)
	}
	if !strings.Contains(string(body), "timeout") {
		t.Fatalf("timeout error body: %s", body)
	}
	st := serverStats(t, ts)
	if st.QueryTimeouts != 1 {
		t.Errorf("QueryTimeouts = %d, want 1", st.QueryTimeouts)
	}
	if st.InflightQueries != 0 {
		t.Errorf("InflightQueries = %d after the query returned, want 0", st.InflightQueries)
	}

	// The DB remains usable with a roomier deadline.
	db.OnCorrespondences(nil)
	status, body = doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("query after timeout: status %d: %s", status, body)
	}
}

// TestMaxInflightRejectsWith429: with an inflight cap of 1, a second
// concurrent query is rejected immediately instead of queueing, and
// the first completes untouched.
func TestMaxInflightRejectsWith429(t *testing.T) {
	db := studentFixture(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db.OnCorrespondences(func(alias string, proposed []hummer.Correspondence) []hummer.Correspondence {
		once.Do(func() {
			close(entered)
			<-release
		})
		return proposed
	})
	ts := newLifecycleServer(t, db, WithMaxInflight(1))

	firstDone := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		firstDone <- status
	}()
	<-entered // the first query now holds the only slot

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-limit query: status %d (%s), want 429", status, body)
	}
	if !strings.Contains(string(body), "inflight") {
		t.Fatalf("429 body: %s", body)
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first query: status %d, want 200", status)
	}
	st := serverStats(t, ts)
	if st.RejectedQueries != 1 {
		t.Errorf("RejectedQueries = %d, want 1", st.RejectedQueries)
	}
	if st.InflightQueries != 0 {
		t.Errorf("InflightQueries = %d at rest, want 0", st.InflightQueries)
	}

	// The slot is free again: the next query is admitted.
	status, body = doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("query after release: status %d: %s", status, body)
	}
}

// TestClientDisconnectCancelsQuery: a client that hangs up cancels its
// pipeline mid-flight; the server counts the 499 and stays healthy.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	db := studentFixture(t)
	entered := make(chan struct{})
	var once sync.Once
	db.OnCorrespondences(func(alias string, proposed []hummer.Correspondence) []hummer.Correspondence {
		once.Do(func() { close(entered) })
		time.Sleep(300 * time.Millisecond) // outlive the client below
		return proposed
	})
	ts := newLifecycleServer(t, db)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"sql": "SELECT Name FUSE FROM EE_Student, CS_Students FUSE BY (Name)"}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-entered
	cancel() // the client walks away mid-query
	if err := <-errCh; err == nil {
		t.Fatal("client request unexpectedly succeeded after cancel")
	}

	// The server observes the disconnect asynchronously; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if st := serverStats(t, ts); st.ClientDisconnects == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ClientDisconnects never incremented: %+v", serverStats(t, ts))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And keeps serving.
	status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("query after client disconnect: status %d: %s", status, body)
	}
}

// TestMetricsEndpoint: /metrics serves the Prometheus text format
// with the query counters and the per-kind cache traffic, including
// the fused tier.
func TestMetricsEndpoint(t *testing.T) {
	db := studentFixture(t)
	ts := newLifecycleServer(t, db)

	// Cold + warm query so every cache kind has traffic.
	for i := 0; i < 2; i++ {
		if status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery}); status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, body)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE hummer_queries_total counter",
		"hummer_queries_total 2",
		"# TYPE hummer_inflight_queries gauge",
		"hummer_inflight_queries 0",
		"# TYPE hummer_query_duration_seconds histogram",
		`hummer_query_duration_seconds_bucket{class="query",le="0.0005"}`,
		`hummer_query_duration_seconds_bucket{class="query",le="+Inf"} 2`,
		`hummer_query_duration_seconds_sum{class="query"}`,
		`hummer_query_duration_seconds_count{class="query"} 2`,
		`hummer_query_duration_seconds_bucket{class="stream",le="+Inf"} 0`,
		`hummer_query_duration_seconds_count{class="batch"} 0`,
		`hummer_cache_hits_total{kind="fused"} 1`,
		`hummer_cache_misses_total{kind="fused"} 1`,
		`hummer_cache_misses_total{kind="match"} 1`,
		`hummer_cache_misses_total{kind="detect"} 1`,
		"hummer_queries_rejected_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full metrics output:\n%s", text)
	}
}
