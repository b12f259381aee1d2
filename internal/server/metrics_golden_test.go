package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hummer"
)

// metricsText scrapes s's /metrics page in-process.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// familyLines returns the lines of one metric family: its HELP and
// TYPE comments and every sample whose name starts with family+"_".
func familyLines(text, family string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP "+family+" ") ||
			strings.HasPrefix(line, "# TYPE "+family+" ") ||
			strings.HasPrefix(line, family+"_") {
			out = append(out, line)
		}
	}
	return out
}

// TestMetricsHistogramGolden pins the exact exposition bytes of the
// per-class query latency and per-phase histograms for a fixed set of
// observations, including one negative duration (clamped to 0) and one
// beyond the last finite bound (lands in +Inf only).
func TestMetricsHistogramGolden(t *testing.T) {
	s := New(hummer.New())
	for _, d := range []time.Duration{
		-time.Millisecond, 300 * time.Microsecond, 2 * time.Millisecond, 2 * time.Millisecond,
		40 * time.Millisecond, 700 * time.Millisecond, 90 * time.Second,
	} {
		s.latQuery.Observe(d)
	}
	s.latStream.Observe(1500 * time.Millisecond)
	s.phaseHist("plan").Observe(time.Millisecond)
	s.phaseHist("match.score").Observe(12 * time.Millisecond)
	s.phaseHist("match.score").Observe(3 * time.Second)

	text := metricsText(t, s)
	for _, c := range []struct{ family, want string }{
		{"hummer_query_duration_seconds", goldenQueryDuration},
		{"hummer_phase_duration_seconds", goldenPhaseDuration},
	} {
		got := strings.Join(familyLines(text, c.family), "\n") + "\n"
		if got != c.want {
			t.Errorf("%s exposition changed:\n--- got\n%s--- want\n%s", c.family, got, c.want)
		}
	}
}

const goldenQueryDuration = `# HELP hummer_query_duration_seconds Wall-clock statement execution time by query class (query = /v1/query, stream = whole /v1/query/stream, batch = individual /v1/batch statements).
# TYPE hummer_query_duration_seconds histogram
hummer_query_duration_seconds_bucket{class="query",le="0.0005"} 2
hummer_query_duration_seconds_bucket{class="query",le="0.001"} 2
hummer_query_duration_seconds_bucket{class="query",le="0.0025"} 4
hummer_query_duration_seconds_bucket{class="query",le="0.005"} 4
hummer_query_duration_seconds_bucket{class="query",le="0.01"} 4
hummer_query_duration_seconds_bucket{class="query",le="0.025"} 4
hummer_query_duration_seconds_bucket{class="query",le="0.05"} 5
hummer_query_duration_seconds_bucket{class="query",le="0.1"} 5
hummer_query_duration_seconds_bucket{class="query",le="0.25"} 5
hummer_query_duration_seconds_bucket{class="query",le="0.5"} 5
hummer_query_duration_seconds_bucket{class="query",le="1"} 6
hummer_query_duration_seconds_bucket{class="query",le="2.5"} 6
hummer_query_duration_seconds_bucket{class="query",le="5"} 6
hummer_query_duration_seconds_bucket{class="query",le="10"} 6
hummer_query_duration_seconds_bucket{class="query",le="30"} 6
hummer_query_duration_seconds_bucket{class="query",le="60"} 6
hummer_query_duration_seconds_bucket{class="query",le="+Inf"} 7
hummer_query_duration_seconds_sum{class="query"} 90.7443
hummer_query_duration_seconds_count{class="query"} 7
hummer_query_duration_seconds_bucket{class="stream",le="0.0005"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.001"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.0025"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.005"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.01"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.025"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.05"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.1"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.25"} 0
hummer_query_duration_seconds_bucket{class="stream",le="0.5"} 0
hummer_query_duration_seconds_bucket{class="stream",le="1"} 0
hummer_query_duration_seconds_bucket{class="stream",le="2.5"} 1
hummer_query_duration_seconds_bucket{class="stream",le="5"} 1
hummer_query_duration_seconds_bucket{class="stream",le="10"} 1
hummer_query_duration_seconds_bucket{class="stream",le="30"} 1
hummer_query_duration_seconds_bucket{class="stream",le="60"} 1
hummer_query_duration_seconds_bucket{class="stream",le="+Inf"} 1
hummer_query_duration_seconds_sum{class="stream"} 1.5
hummer_query_duration_seconds_count{class="stream"} 1
hummer_query_duration_seconds_bucket{class="batch",le="0.0005"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.001"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.0025"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.005"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.01"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.025"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.05"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.1"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.25"} 0
hummer_query_duration_seconds_bucket{class="batch",le="0.5"} 0
hummer_query_duration_seconds_bucket{class="batch",le="1"} 0
hummer_query_duration_seconds_bucket{class="batch",le="2.5"} 0
hummer_query_duration_seconds_bucket{class="batch",le="5"} 0
hummer_query_duration_seconds_bucket{class="batch",le="10"} 0
hummer_query_duration_seconds_bucket{class="batch",le="30"} 0
hummer_query_duration_seconds_bucket{class="batch",le="60"} 0
hummer_query_duration_seconds_bucket{class="batch",le="+Inf"} 0
hummer_query_duration_seconds_sum{class="batch"} 0
hummer_query_duration_seconds_count{class="batch"} 0
`

const goldenPhaseDuration = `# HELP hummer_phase_duration_seconds Pipeline phase durations from per-query span tracing.
# TYPE hummer_phase_duration_seconds histogram
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.0005"} 0
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.001"} 0
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.0025"} 0
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.005"} 0
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.01"} 0
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.025"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.05"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.1"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.25"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="0.5"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="1"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="2.5"} 1
hummer_phase_duration_seconds_bucket{phase="match.score",le="5"} 2
hummer_phase_duration_seconds_bucket{phase="match.score",le="10"} 2
hummer_phase_duration_seconds_bucket{phase="match.score",le="30"} 2
hummer_phase_duration_seconds_bucket{phase="match.score",le="60"} 2
hummer_phase_duration_seconds_bucket{phase="match.score",le="+Inf"} 2
hummer_phase_duration_seconds_sum{phase="match.score"} 3.012
hummer_phase_duration_seconds_count{phase="match.score"} 2
hummer_phase_duration_seconds_bucket{phase="plan",le="0.0005"} 0
hummer_phase_duration_seconds_bucket{phase="plan",le="0.001"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.0025"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.005"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.01"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.025"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.05"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.1"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.25"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="0.5"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="1"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="2.5"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="5"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="10"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="30"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="60"} 1
hummer_phase_duration_seconds_bucket{phase="plan",le="+Inf"} 1
hummer_phase_duration_seconds_sum{phase="plan"} 0.001
hummer_phase_duration_seconds_count{phase="plan"} 1
`
