package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hummer"
	"hummer/internal/faultinject"
	"hummer/internal/testutil"
)

// doJSONResp is doJSON when the test also needs response headers.
func doJSONResp(t *testing.T, ts *httptest.Server, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// wantRetryAfter asserts the overload response carries a sane
// Retry-After: present, an integer, at least one second.
func wantRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%d response has no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", secs)
	}
}

// TestRetryAfterOnOverload: 429 (admission rejection) and 504 (query
// timeout) responses tell the client when to come back.
func TestRetryAfterOnOverload(t *testing.T) {
	t.Run("429", func(t *testing.T) {
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
		defer close(release)

		go func() { doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery}) }()
		<-entered

		resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
		}
		wantRetryAfter(t, resp)
	})

	t.Run("504", func(t *testing.T) {
		db := studentFixture(t)
		db.OnCorrespondences(func(alias string, proposed []hummer.Correspondence) []hummer.Correspondence {
			time.Sleep(100 * time.Millisecond)
			return proposed
		})
		ts := newLifecycleServer(t, db, WithQueryTimeout(15*time.Millisecond))

		resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
		}
		wantRetryAfter(t, resp)
	})
}

// blockingFixture arms the wizard hook so the first query parks on
// release while holding its admission slot; later queries run through.
func blockingFixture(t *testing.T) (db *hummer.DB, entered, release chan struct{}) {
	t.Helper()
	db = studentFixture(t)
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	db.OnCorrespondences(func(alias string, proposed []hummer.Correspondence) []hummer.Correspondence {
		once.Do(func() {
			close(entered)
			<-release
		})
		return proposed
	})
	return db, entered, release
}

// TestAdmissionWaitQueueAbsorbsBurst: with a wait queue configured, an
// over-limit request parks instead of 429ing and is admitted when the
// slot frees up.
func TestAdmissionWaitQueueAbsorbsBurst(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db, entered, release := blockingFixture(t)
	ts := newLifecycleServer(t, db, WithMaxInflight(1), WithAdmissionWait(2, 2*time.Second))

	firstDone := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		firstDone <- status
	}()
	<-entered // the first query holds the only slot

	secondDone := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		secondDone <- status
	}()
	// The second query must be queued, not rejected.
	waitForStat(t, ts, "a queued waiter", func(st statsResponse) bool {
		return st.AdmissionWaiters == 1
	})

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first query: status %d, want 200", status)
	}
	if status := <-secondDone; status != http.StatusOK {
		t.Fatalf("queued query: status %d, want 200 after the slot freed", status)
	}
	st := serverStats(t, ts)
	if st.AdmissionWaits != 1 {
		t.Errorf("AdmissionWaits = %d, want 1", st.AdmissionWaits)
	}
	if st.AdmissionWaiters != 0 {
		t.Errorf("AdmissionWaiters = %d at rest, want 0", st.AdmissionWaiters)
	}
	if st.RejectedQueries != 0 {
		t.Errorf("RejectedQueries = %d, want 0 — the queue should have absorbed the burst", st.RejectedQueries)
	}
}

// TestAdmissionWaitTimeout503: a queued request whose wait allowance
// elapses is rejected 503 with Retry-After, and counted.
func TestAdmissionWaitTimeout503(t *testing.T) {
	db, entered, release := blockingFixture(t)
	ts := newLifecycleServer(t, db, WithMaxInflight(1), WithAdmissionWait(2, 20*time.Millisecond))
	defer close(release)

	go func() { doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery}) }()
	<-entered

	resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503 after the wait expired", resp.StatusCode, body)
	}
	wantRetryAfter(t, resp)
	st := serverStats(t, ts)
	if st.AdmissionWaitTimeouts != 1 {
		t.Errorf("AdmissionWaitTimeouts = %d, want 1", st.AdmissionWaitTimeouts)
	}
	if st.RejectedQueries != 1 {
		t.Errorf("RejectedQueries = %d, want 1", st.RejectedQueries)
	}
}

// TestAdmissionQueueFull429: the wait queue is bounded — once it is
// occupied, further over-limit requests get an immediate 429.
func TestAdmissionQueueFull429(t *testing.T) {
	db, entered, release := blockingFixture(t)
	ts := newLifecycleServer(t, db, WithMaxInflight(1), WithAdmissionWait(1, 2*time.Second))

	firstDone := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		firstDone <- status
	}()
	<-entered
	queuedDone := make(chan int, 1)
	go func() {
		status, _ := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		queuedDone <- status
	}()
	waitForStat(t, ts, "the single queue seat taken", func(st statsResponse) bool {
		return st.AdmissionWaiters == 1
	})

	resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429 with the queue full", resp.StatusCode, body)
	}
	wantRetryAfter(t, resp)

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first query: status %d", status)
	}
	if status := <-queuedDone; status != http.StatusOK {
		t.Fatalf("queued query: status %d", status)
	}
}

// waitForStat polls /v1/stats until cond holds, with a deadline.
func waitForStat(t *testing.T, ts *httptest.Server, what string, cond func(statsResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond(serverStats(t, ts)) {
		if time.Now().After(deadline) {
			t.Fatalf("never observed %s: %+v", what, serverStats(t, ts))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandlerPanicContained is the end-to-end containment acceptance
// test: an injected panic inside a request handler becomes a 500, the
// process survives, the counters advance, and the identical query
// afterwards returns byte-identical to the unfaulted baseline.
func TestHandlerPanicContained(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := studentFixture(t)
	ts := newLifecycleServer(t, db)

	status, baseline := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", status, baseline)
	}
	before := serverStats(t, ts)

	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerQuery, Kind: faultinject.Panic, Times: 1},
	}})
	status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	faultinject.Disarm()
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted query: status %d (%s), want 500", status, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("500 body: %s", body)
	}

	st := serverStats(t, ts)
	if st.PanicsRecovered <= before.PanicsRecovered {
		t.Errorf("PanicsRecovered did not advance: %d -> %d", before.PanicsRecovered, st.PanicsRecovered)
	}
	if st.InternalErrors != before.InternalErrors+1 {
		t.Errorf("InternalErrors = %d, want %d", st.InternalErrors, before.InternalErrors+1)
	}

	// The process survived and the same query is byte-identical.
	status, again := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK {
		t.Fatalf("post-panic query: status %d: %s", status, again)
	}
	if !bytes.Equal(again, baseline) {
		t.Errorf("post-panic result differs from baseline:\nwant: %s\ngot:  %s", baseline, again)
	}
}

// TestStreamPanicContained: a panic injected into the stream handler
// before any bytes are written maps to a clean 500; one injected deep
// in the stream cursor (after headers) surfaces as the in-band error
// record. Either way the server keeps serving.
func TestStreamPanicContained(t *testing.T) {
	db := studentFixture(t)
	var log syncBuffer
	ts := newLifecycleServer(t, db, WithLogger(slog.New(slog.NewJSONHandler(&log, nil))))

	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteServerStream, Kind: faultinject.Panic, Times: 1},
	}})
	resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	faultinject.Disarm()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted stream: status %d (%s), want 500", resp.StatusCode, body)
	}

	// Deep fault: After skips the cursor's start hit so the panic fires
	// at the cursor's next hit — after the NDJSON stream has started —
	// and is reported as the terminal error record.
	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SitePlanStream, Kind: faultinject.Panic, After: 1, Times: 1},
	}})
	resp, body = doJSONResp(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	faultinject.Disarm()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deep-faulted stream: status %d (%s), want 200 + error record", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"error"`) || !strings.Contains(string(body), "internal error") {
		t.Fatalf("deep-faulted stream body has no internal-error record:\n%s", body)
	}
	wantPanicLogged(t, log.String(), resp.Header.Get("X-Hummer-Request-Id"))

	// Still serving, cleanly.
	status, out := doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
	if status != http.StatusOK || strings.Contains(string(out), `"error"`) {
		t.Fatalf("post-fault stream: status %d:\n%s", status, out)
	}
}

// TestBatchPanicContained: a batch statement that fails on a panic
// contained deep in the pipeline reports the internal error in its
// result slot, logs it with the request ID and stack, and counts it
// as an internal error; its neighbour is unharmed.
func TestBatchPanicContained(t *testing.T) {
	var log syncBuffer
	ts := newLifecycleServer(t, studentFixture(t), WithLogger(slog.New(slog.NewJSONHandler(&log, nil))))
	before := serverStats(t, ts)

	faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteCoreMatch, Kind: faultinject.Panic, Times: 1},
	}})
	resp, body := doJSONResp(t, ts, http.MethodPost, "/v1/batch", batchRequest{Statements: []string{
		fuseQuery, `SELECT Name FROM EE_Student ORDER BY Name`,
	}})
	faultinject.Disarm()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted batch: status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Results[0].Error, "internal error") || out.Results[1].Error != "" {
		t.Fatalf("faulted batch results: %s", body)
	}
	wantPanicLogged(t, log.String(), resp.Header.Get("X-Hummer-Request-Id"))
	if st := serverStats(t, ts); st.InternalErrors != before.InternalErrors+1 {
		t.Errorf("InternalErrors = %d, want %d", st.InternalErrors, before.InternalErrors+1)
	}
}

// wantPanicLogged asserts that the JSON log holds a contained-panic
// record for request reqID, stack included.
func wantPanicLogged(t *testing.T, log, reqID string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var rec struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Stack     string `json:"stack"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && strings.Contains(rec.Msg, "contained panic") &&
			rec.RequestID == reqID && rec.Stack != "" {
			return
		}
	}
	t.Errorf("no contained-panic record with request_id %q and a stack; log:\n%s", reqID, log)
}

// TestStatsAndMetricsExposeFaultCounters: the new observability
// surface — panic/internal-error counters and the admission-wait
// series — is present on both endpoints.
func TestStatsAndMetricsExposeFaultCounters(t *testing.T) {
	db := studentFixture(t)
	ts := newLifecycleServer(t, db)

	status, raw := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	for _, field := range []string{
		`"panics_recovered"`, `"internal_errors"`,
		`"admission_waiters"`, `"admission_waits"`, `"admission_wait_timeouts"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("stats JSON missing %s: %s", field, raw)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE hummer_panics_recovered_total counter",
		"# TYPE hummer_internal_errors_total counter",
		"# TYPE hummer_admission_waits_total counter",
		"# TYPE hummer_admission_wait_timeouts_total counter",
		"# TYPE hummer_admission_waiters gauge",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestInjectedErrorsCountAsQueries: a statement that fails on an
// injected handler error is counted in hummer_queries_total as well as
// in hummer_query_errors_total; the request-level batch fault runs no
// statement and counts as neither.
func TestInjectedErrorsCountAsQueries(t *testing.T) {
	ts := newLifecycleServer(t, studentFixture(t))
	for _, c := range []struct {
		site, path string
		body       any
	}{
		{faultinject.SiteServerQuery, "/v1/query", queryRequest{SQL: fuseQuery}},
		{faultinject.SiteServerStream, "/v1/query/stream", queryRequest{SQL: fuseQuery}},
		{faultinject.SiteServerBatch, "/v1/batch", batchRequest{Statements: []string{fuseQuery}}},
	} {
		faultinject.Arm(&faultinject.Plan{Rules: []faultinject.Rule{
			{Site: c.site, Kind: faultinject.Error, Times: 1},
		}})
		status, body := doJSON(t, ts, http.MethodPost, c.path, c.body)
		faultinject.Disarm()
		if status == http.StatusOK {
			t.Fatalf("%s: status 200 despite the injected error: %s", c.site, body)
		}
	}
	_, text := doJSON(t, ts, http.MethodGet, "/metrics", nil)
	counter := func(name string) uint64 {
		for _, line := range strings.Split(string(text), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	queries, errs := counter("hummer_queries_total"), counter("hummer_query_errors_total")
	if errs != 2 || queries < errs {
		t.Errorf("queries_total = %d, query_errors_total = %d; want errors 2 <= queries", queries, errs)
	}
}
