package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hummer"
	"hummer/internal/loadgen"
)

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Flush()                      {}

// requestBody is a reusable request body.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// discardServe serves one POST of body to path through h, its response
// discarded, and returns a function that serves it again; tb fails on
// any status other than 200. The first request fills the cache tiers
// the statement reads.
func discardServe(tb testing.TB, h http.Handler, path string, body []byte) func() {
	req := httptest.NewRequest(http.MethodPost, path, nil)
	rb := &requestBody{}
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		rb.Reset(body)
		req.Body = rb
		clear(w.header)
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("%s: status %d", path, w.code)
		}
	}
	serve()
	return serve
}

// BenchmarkServedClasses measures the server side of each request
// class of the benchmark's warm_serve mix: one warm request through
// Handler() over the loadgen fixture (seed 42, 400 entities), the
// response written to a discarding ResponseWriter. No listener and no
// client, so the numbers are the handler's own: routing, admission,
// the cached query, and encoding the response.
func BenchmarkServedClasses(b *testing.B) {
	h := loadgenHandler(b, hummer.New(), 42, 400)
	query := func(sql string, lineage bool) any { return map[string]any{"sql": sql, "lineage": lineage} }
	for _, c := range []struct {
		name, path string
		body       any
	}{
		{"warm_fuse", "/v1/query", query(loadgen.FuseSQL, false)},
		{"warm_fuse_lineage", "/v1/query", query(loadgen.FuseSQL, true)},
		{"select_mat", "/v1/query", query(loadgen.SelectSQL, false)},
		{"select_stream", "/v1/query/stream", query(loadgen.SelectSQL, false)},
		{"fuse_stream", "/v1/query/stream", query(loadgen.FuseSQL, false)},
		{"batch", "/v1/batch", map[string]any{"statements": []string{loadgen.FuseSQL, loadgen.SelectSQL}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			payload, err := json.Marshal(c.body)
			if err != nil {
				b.Fatal(err)
			}
			serve := discardServe(b, h, c.path, payload)
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
