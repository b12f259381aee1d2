package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// Allocation ceilings of one warm served request through Handler(),
// response encoding included: a fused-tier hit on /v1/query, and a
// /v1/batch of a plain SELECT and the same FUSE BY. They guard the
// served path's bytes, the one warm-serving cost that does not drift
// with the machine's load. Each is the highest count measured across
// -cpu 1,2,4 before the handlers were split out of server.go.
const (
	maxWarmQueryAllocs = 114
	maxWarmBatchAllocs = 172
)

// servedAllocs warms path with body once, then counts the allocations
// of one more identical request.
func servedAllocs(t *testing.T, path, body string) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := New(studentFixture(t),
		WithQueryTimeout(time.Minute),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	serve()
	return testing.AllocsPerRun(50, serve)
}

func TestWarmServedAllocCeiling(t *testing.T) {
	q := `{"sql":"SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) ORDER BY Name"}`
	if got := servedAllocs(t, "/v1/query", q); got > maxWarmQueryAllocs {
		t.Errorf("warm /v1/query allocs = %v, want <= %d", got, maxWarmQueryAllocs)
	}
	b := `{"statements":["SELECT FullName FROM CS_Students ORDER BY FullName","SELECT Name, RESOLVE(Age, max) FUSE FROM EE_Student, CS_Students FUSE BY (Name) ORDER BY Name"]}`
	if got := servedAllocs(t, "/v1/batch", b); got > maxWarmBatchAllocs {
		t.Errorf("warm /v1/batch allocs = %v, want <= %d", got, maxWarmBatchAllocs)
	}
}
