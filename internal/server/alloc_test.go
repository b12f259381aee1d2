package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hummer"
	"hummer/internal/value"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// Allocation ceilings of one warm served request through Handler(),
// response encoding included: a fused-tier hit on /v1/query, and a
// /v1/batch of a plain SELECT and the same FUSE BY. They guard the
// served path's bytes, the one warm-serving cost that does not drift
// with the machine's load. Each is the highest count measured across
// -cpu 1,2,4 once responses were appended straight from the values.
const (
	maxWarmQueryAllocs = 106
	maxWarmBatchAllocs = 158
)

// maxRowScalingAllocs bounds how many more allocations a plain SELECT
// of 800 rows costs the server than one of 8 rows, materialized or
// streamed: responses are appended straight from the rows into reused
// buffers, so no allocation may come back per row.
const maxRowScalingAllocs = 4

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

func TestServedAllocsDoNotScaleWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := hummer.New()
	seen := time.Date(2005, 8, 30, 0, 0, 0, 0, time.UTC)
	for _, n := range []int{8, 800} {
		alias := fmt.Sprintf("rows%d", n)
		b := hummer.NewTable(alias, "id", "name", "score", "ok", "seen", "note")
		for i := range n {
			b.Add(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("Müller %d", i)),
				value.NewFloat(float64(i)/7), value.NewBool(i%2 == 0), value.NewTime(seen), value.Null)
		}
		if err := db.RegisterTable(alias, b.Build()); err != nil {
			t.Fatal(err)
		}
	}
	h := New(db, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	for _, path := range []string{"/v1/query", "/v1/query/stream"} {
		small := testing.AllocsPerRun(50, discardServe(t, h, path, []byte(`{"sql":"SELECT * FROM rows8"}`)))
		large := testing.AllocsPerRun(50, discardServe(t, h, path, []byte(`{"sql":"SELECT * FROM rows800"}`)))
		t.Logf("%s: %v allocs for 8 rows, %v for 800", path, small, large)
		if large-small > maxRowScalingAllocs {
			t.Errorf("%s: %v allocs for 800 rows, %v for 8 rows: more than %d apart",
				path, large, small, maxRowScalingAllocs)
		}
	}
}
