package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hummer"
	"hummer/internal/loadgen"
	"hummer/internal/value"
)

// handlerTransport routes an http.Client's requests straight into a
// handler, so loadgen.Setup can register its fixture without a
// listener.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// loadgenHandler returns the handler of a fresh server over db with
// the loadgen fixture registered for seed and entities.
func loadgenHandler(tb testing.TB, db *hummer.DB, seed int64, entities int) http.Handler {
	tb.Helper()
	h := New(db, WithQueryTimeout(time.Minute),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	client := &http.Client{Transport: handlerTransport{h}}
	if err := loadgen.Setup(context.Background(), client, "http://hummerd", seed, entities); err != nil {
		tb.Fatal(err)
	}
	return h
}

// escapeFixture is a DB holding "esc": strings that need every kind
// of JSON escape (quotes, control bytes, U+2028/U+2029, invalid
// UTF-8), floats on both sides of the exponent-form cutoffs, and one
// cell of every other kind.
func escapeFixture(t *testing.T) *hummer.DB {
	t.Helper()
	at := time.Date(2005, 8, 30, 9, 15, 0, 0, time.UTC)
	rows := []struct {
		s string
		f float64
	}{
		{"plain", 1e-7},
		{`quo"te\back`, 0.000001},
		{"<html>&amp;", 1.2e23},
		{"tab\tnl\ncr\r", 1e21},
		{"\x00\x01\x1f\x7f", 123.456},
		{"ls\u2028ps\u2029", -0.5},
		{"bad\xff\xe2\x80utf8", 0},
		{"héllo 日本 🙂", 999999999999999900000},
		{"", -1e-7},
		{"e-notation", 5e-324},
		{"max", math.MaxFloat64},
		{"neg-zero", math.Copysign(0, -1)},
	}
	b := hummer.NewTable("esc", "id", "s", "f", "b", "t", `wé"ird<col>`)
	for i, r := range rows {
		if i == 1 {
			at = at.In(time.FixedZone("CEST", 2*3600))
		}
		b.Add(value.NewInt(int64(i)-3), value.NewString(r.s), value.NewFloat(r.f),
			value.NewBool(i%2 == 0), value.NewTime(at.AddDate(0, 0, i)), value.Null)
	}
	db := hummer.New()
	if err := db.RegisterTable("esc", b.Build()); err != nil {
		t.Fatal(err)
	}
	return db
}

var (
	goldenTraceID = regexp.MustCompile(`"trace_id":"[^"]*"`)
	goldenSeconds = regexp.MustCompile(`"seconds":[0-9.e+-]+`)
)

// TestResponsesGolden pins the exact response bytes of every endpoint
// that carries result rows: /v1/query (plain, fused, with lineage,
// traced, empty), /v1/query/stream (whole and windowed), /v1/batch
// (with a failing statement) and GET /v1/sources/{alias}, over the
// loadgen fixture and the escape table. Request IDs and statement
// timings are masked.
func TestResponsesGolden(t *testing.T) {
	h := loadgenHandler(t, escapeFixture(t), 42, 12)
	zeroFuse := "SELECT Name, RESOLVE(Age, max) FUSE FROM lg_s1, lg_s2 FUSE BY (Name) HAVING Name = 'nobody'"
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/v1/query", `{"sql":"SELECT * FROM esc"}`},
		{"POST", "/v1/query", `{"sql":"SELECT id, s, f * 1 AS g FROM esc WHERE id > 0 ORDER BY g"}`},
		{"POST", "/v1/query", `{"sql":"` + loadgen.SelectSQL + `"}`},
		{"POST", "/v1/query", `{"sql":"` + loadgen.FuseSQL + `"}`},
		{"POST", "/v1/query", `{"sql":"` + loadgen.FuseSQL + `","lineage":true}`},
		{"POST", "/v1/query", `{"sql":"` + loadgen.FuseSQL + `","trace":true}`},
		{"POST", "/v1/query", `{"sql":"SELECT * FROM esc WHERE id > 100"}`},
		{"POST", "/v1/query", `{"sql":"` + zeroFuse + `","lineage":true}`},
		{"POST", "/v1/query/stream", `{"sql":"SELECT * FROM esc"}`},
		{"POST", "/v1/query/stream", `{"sql":"` + loadgen.FuseSQL + `","lineage":true}`},
		{"POST", "/v1/query/stream", `{"sql":"` + loadgen.SelectSQL + `","offset":5,"limit":4}`},
		{"POST", "/v1/query/stream", `{"sql":"` + loadgen.FuseSQL + `","offset":3}`},
		{"POST", "/v1/query/stream", `{"sql":"SELECT * FROM esc","limit":0}`},
		{"POST", "/v1/batch", `{"statements":["` + loadgen.FuseSQL + `","SELECT * FROM esc","SELECT nope FROM missing","SELECT s FROM esc WHERE id > 100"],"lineage":true}`},
		{"GET", "/v1/sources/esc", ""},
		{"GET", "/v1/sources/lg_big?limit=3", ""},
		{"GET", "/v1/sources/lg_s2?limit=0", ""},
	}
	var got bytes.Buffer
	for _, c := range cases {
		var body io.Reader
		if c.body != "" {
			if !json.Valid([]byte(c.body)) {
				t.Fatalf("invalid request body %s", c.body)
			}
			body = strings.NewReader(c.body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, body))
		resp := goldenTraceID.ReplaceAll(rec.Body.Bytes(), []byte(`"trace_id":"<id>"`))
		resp = goldenSeconds.ReplaceAll(resp, []byte(`"seconds":0`))
		fmt.Fprintf(&got, "=== %s %s %s\n%d %s\n%s", c.method, c.path, c.body,
			rec.Code, rec.Header().Get("Content-Type"), resp)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "responses.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("responses.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("responses.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
