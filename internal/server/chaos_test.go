package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"hummer/internal/faultinject"
	"hummer/internal/testutil"
)

// chaosSeed fixes the fault schedule: every run of the chaos test
// injects the same faults at the same (site, hit) coordinates. Bump it
// only deliberately — a new seed is a new schedule.
const chaosSeed = 0xC0FFEE

// chaosRequest is one shape of client traffic in the storm.
type chaosRequest struct {
	name string
	do   func(t *testing.T, ts *httptest.Server) (int, []byte)
}

func chaosTraffic() []chaosRequest {
	return []chaosRequest{
		{"fuse", func(t *testing.T, ts *httptest.Server) (int, []byte) {
			return doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery})
		}},
		{"plain", func(t *testing.T, ts *httptest.Server) (int, []byte) {
			return doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: `SELECT Name FROM EE_Student ORDER BY Name`})
		}},
		{"stream", func(t *testing.T, ts *httptest.Server) (int, []byte) {
			return doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: fuseQuery})
		}},
		{"batch", func(t *testing.T, ts *httptest.Server) (int, []byte) {
			return doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{Statements: []string{
				`SELECT FullName FROM CS_Students ORDER BY FullName`,
				fuseQuery,
			}})
		}},
	}
}

// timingField scrubs the per-statement wall-clock field from batch
// responses: it is the one legitimately non-deterministic byte range.
var timingField = regexp.MustCompile(`"seconds":[0-9.e+-]+`)

func normalizeBody(b []byte) []byte {
	return timingField.ReplaceAll(b, []byte(`"seconds":0`))
}

// monotoneCounters flattens the counter-valued stats a chaos sampler
// must observe as non-decreasing. Gauges (inflight, waiters, queue
// depth) are deliberately absent.
func monotoneCounters(st statsResponse) map[string]uint64 {
	out := map[string]uint64{
		"requests":                st.Requests,
		"rejected_queries":        st.RejectedQueries,
		"streamed_queries":        st.StreamedQueries,
		"batch_requests":          st.BatchRequests,
		"batch_statements":        st.BatchStatements,
		"admission_waits":         st.AdmissionWaits,
		"admission_wait_timeouts": st.AdmissionWaitTimeouts,
		"query_timeouts":          st.QueryTimeouts,
		"panics_recovered":        st.PanicsRecovered,
		"internal_errors":         st.InternalErrors,
		"db.queries":              st.DB.Queries,
		"db.fuse_queries":         st.DB.FuseQueries,
		"db.query_errors":         st.DB.QueryErrors,
	}
	for kind, ks := range st.DB.Cache.Kinds {
		out["cache."+string(kind)+".hits"] = ks.Hits
		out["cache."+string(kind)+".misses"] = ks.Misses
		out["cache."+string(kind)+".shared"] = ks.Shared
	}
	return out
}

// TestChaosFaultStorm is the fault-containment acceptance test: a
// server is hammered with concurrent mixed traffic while the
// deterministic fault harness fires panics, errors and delays across
// every layer. The process survives, every response is a well-formed
// success or failure, counters stay monotone, goroutines settle, and
// once the faults stop the server returns byte-identical results to
// the unfaulted baseline.
func TestChaosFaultStorm(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := studentFixture(t)
	ts := newLifecycleServer(t, db,
		WithQueryTimeout(5*time.Second),
		WithMaxInflight(8),
		WithAdmissionWait(16, 2*time.Second),
	)
	traffic := chaosTraffic()

	// Unfaulted baselines, cold and warm: the post-chaos identity target.
	db.PurgeCache()
	baseline := make(map[string][]byte, len(traffic))
	for _, req := range traffic {
		status, body := req.do(t, ts)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d: %s", req.name, status, body)
		}
		baseline[req.name] = normalizeBody(body)
	}
	for _, req := range traffic { // warm pass must already be identical
		if _, body := req.do(t, ts); !bytes.Equal(normalizeBody(body), baseline[req.name]) {
			t.Fatalf("warm baseline %s differs from cold:\ncold: %s\nwarm: %s",
				req.name, baseline[req.name], normalizeBody(body))
		}
	}
	db.PurgeCache()

	faultinject.Arm(&faultinject.Plan{
		Seed:  chaosSeed,
		Rate:  0.04,
		Kinds: []faultinject.Kind{faultinject.Error, faultinject.Panic, faultinject.Delay},
		Delay: 200 * time.Microsecond,
	})

	const (
		workers = 8
		iters   = 25
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true, // injected errors classify as statement failures
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Purge periodically so the deep pipeline sites (matching,
				// detection, cache leaders) keep executing instead of the
				// storm degenerating into fused-cache hits.
				if w == 0 && i%5 == 0 {
					db.PurgeCache()
				}
				req := traffic[(w+i)%len(traffic)]
				status, body := req.do(t, ts)
				if !allowed[status] {
					errs <- fmt.Sprintf("worker %d iter %d %s: unexpected status %d: %.200s", w, i, req.name, status, body)
				}
			}
		}(w)
	}

	// Sample the stats surface while the storm runs: the server must
	// answer /v1/stats throughout, and every counter must be monotone.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := monotoneCounters(serverStats(t, ts))
sampling:
	for {
		select {
		case <-done:
			break sampling
		case <-time.After(10 * time.Millisecond):
			cur := monotoneCounters(serverStats(t, ts))
			for name, v := range cur {
				if p, ok := prev[name]; ok && v < p {
					errs <- fmt.Sprintf("counter %s went backwards: %d -> %d", name, p, v)
				}
			}
			prev = cur
		}
	}
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// Coverage: the storm must actually have exercised the harness —
	// every layer's fault points hit, and injections fired.
	hits, fired := faultinject.Hits(), faultinject.Fired()
	faultinject.Disarm()
	for _, site := range faultinject.Sites() {
		if hits[site] == 0 {
			t.Errorf("site %s was never hit during the storm", site)
		}
	}
	var totalFired uint64
	for _, n := range fired {
		totalFired += n
	}
	if totalFired == 0 {
		t.Error("no fault ever fired — the storm tested nothing")
	}
	t.Logf("chaos storm: %d sites hit, %d injections fired across %d sites", len(hits), totalFired, len(fired))

	// Post-chaos: stats consistent at rest, results byte-identical to
	// the unfaulted baseline, cold and warm.
	st := serverStats(t, ts)
	if st.InflightQueries != 0 || st.AdmissionWaiters != 0 {
		t.Errorf("at rest: inflight = %d, waiters = %d, want 0/0", st.InflightQueries, st.AdmissionWaiters)
	}
	if st.StreamChunkQueueDepth != 0 {
		t.Errorf("at rest: stream chunk queue depth = %d, want 0", st.StreamChunkQueueDepth)
	}
	if st.DB.Cache.Waiters != 0 {
		t.Errorf("at rest: cache waiters = %d, want 0", st.DB.Cache.Waiters)
	}
	db.PurgeCache()
	for pass := 0; pass < 2; pass++ { // 0 = cold, 1 = warm
		for _, req := range traffic {
			status, body := req.do(t, ts)
			if status != http.StatusOK {
				t.Fatalf("post-chaos %s (pass %d): status %d: %s", req.name, pass, status, body)
			}
			if !bytes.Equal(normalizeBody(body), baseline[req.name]) {
				t.Errorf("post-chaos %s (pass %d) differs from baseline:\nwant: %s\ngot:  %s",
					req.name, pass, baseline[req.name], normalizeBody(body))
			}
		}
	}
}
