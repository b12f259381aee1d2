package server

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

// TestStatsLatencyPercentiles: /v1/stats carries per-class percentile
// summaries that reconcile with the query traffic.
func TestStatsLatencyPercentiles(t *testing.T) {
	ts := newTestServer(t)
	registerStudents(t, ts)

	for i := 0; i < 3; i++ {
		if status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: fuseQuery}); status != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, status, body)
		}
	}
	if status, body := doJSON(t, ts, http.MethodPost, "/v1/query/stream",
		streamRequest{queryRequest: queryRequest{SQL: "SELECT Name FROM EE_Student"}}); status != http.StatusOK {
		t.Fatalf("stream: %d %s", status, body)
	}
	if status, body := doJSON(t, ts, http.MethodPost, "/v1/batch",
		batchRequest{Statements: []string{"SELECT Name FROM EE_Student", "SELECT FullName FROM CS_Students"}}); status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}

	status, body := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var st struct {
		Latency map[string]LatencySummary `json:"latency"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"query": 3, "stream": 1, "batch": 2}
	for class, n := range want {
		sum, ok := st.Latency[class]
		if !ok {
			t.Fatalf("stats latency missing class %q: %s", class, body)
		}
		if sum.Count != n {
			t.Errorf("latency[%q].count = %d, want %d", class, sum.Count, n)
		}
		if sum.Count > 0 {
			if sum.P50Seconds <= 0 || sum.P99Seconds < sum.P95Seconds || sum.P95Seconds < sum.P50Seconds ||
				math.IsNaN(sum.P50Seconds) {
				t.Errorf("latency[%q] percentiles not monotone/positive: %+v", class, sum)
			}
		}
	}
}
