package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricName matches a Prometheus metric name inside a string literal.
var metricName = regexp.MustCompile(`hummer_[a-z0-9_]+`)

// TestMetricsDeclaredOnce is the "declared once" self-check: in the
// package's non-test code every hummer_… metric name, and every
// top-level /v1/stats key, appears in exactly one string literal or
// JSON struct tag — the metricTable entry (or, for "db", handleStats).
// A second surface spelling a metric out again fails here.
func TestMetricsDeclaredOnce(t *testing.T) {
	ts := newTestServer(t)
	_, raw := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats: %v in %s", err, raw)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	keys := map[string]int{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				// /healthz carries its own uptime_seconds.
				return n.Name.Name != "healthResponse"
			case *ast.Field:
				if n.Tag != nil {
					tag, _ := strconv.Unquote(n.Tag.Value)
					key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
					keys[key]++
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(n.Value)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(n.Pos()), err)
				}
				for _, name := range metricName.FindAllString(s, -1) {
					names[name]++
				}
				keys[s]++
			}
			return true
		})
	}

	for _, m := range metricTable {
		if m.name != "" && names[m.name] == 0 {
			t.Errorf("%s: not found as a literal", m.name)
		}
	}
	for name, n := range names {
		if n > 1 {
			t.Errorf("metric name %s appears in %d literals, want 1", name, n)
		}
	}
	for key := range stats {
		if keys[key] != 1 {
			t.Errorf("/v1/stats key %q appears in %d literals or tags, want 1", key, keys[key])
		}
	}
}

// scrapeMetrics reads /metrics into sample → value, each sample keyed
// by its name and labels as exposed.
func scrapeMetrics(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(metricsText(t, s)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsAndStatsReconcile drives mixed traffic, failures
// included, then reads /metrics, /v1/stats and /metrics again with the
// server at rest: every metricTable entry carried on both surfaces
// must read, on /v1/stats, a value between its two /metrics readings
// (equal to both unless the scrapes themselves move it, as they do
// requests and uptime). Histograms reconcile per label, count and sum.
func TestMetricsAndStatsReconcile(t *testing.T) {
	s := New(studentFixture(t))
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/query", queryRequest{SQL: fuseQuery}},
		{"/v1/query", queryRequest{SQL: fuseQuery, Lineage: true}},
		{"/v1/query", queryRequest{SQL: `SELECT Name FROM EE_Student`}},
		{"/v1/query", queryRequest{SQL: `SELECT nope FROM EE_Student`}},
		{"/v1/query/stream", queryRequest{SQL: fuseQuery}},
		{"/v1/batch", batchRequest{Statements: []string{`SELECT FullName FROM CS_Students`, fuseQuery, `SELECT FROM`}}},
	} {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		s.Handler().ServeHTTP(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
	}

	before := scrapeMetrics(t, s)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	after := scrapeMetrics(t, s)
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats: %v in %s", err, rec.Body)
	}

	within := func(what, sample string, v float64) {
		lo, okLo := before[sample]
		hi, okHi := after[sample]
		if !okLo || !okHi {
			t.Errorf("%s: /metrics has no sample %s", what, sample)
		} else if v < lo || v > hi {
			t.Errorf("%s = %v on /v1/stats, %v then %v on /metrics", what, v, lo, hi)
		}
	}
	checked := 0
	for _, m := range metricTable {
		if m.name == "" || m.stat == "" {
			continue
		}
		checked++
		if m.series == nil {
			var v float64
			if err := json.Unmarshal(stats[m.stat], &v); err != nil {
				t.Fatalf("stats %q: %v", m.stat, err)
			}
			within(m.stat, m.name, v)
			continue
		}
		var sums map[string]LatencySummary
		if err := json.Unmarshal(stats[m.stat], &sums); err != nil {
			t.Fatalf("stats %q: %v", m.stat, err)
		}
		if len(sums) == 0 {
			t.Errorf("stats %q is empty after the traffic", m.stat)
		}
		for label, sum := range sums {
			sel := fmt.Sprintf("{%s=%q}", m.label, label)
			within(m.stat+"."+label+".count", m.name+"_count"+sel, float64(sum.Count))
			within(m.stat+"."+label+".sum_seconds", m.name+"_sum"+sel, sum.SumSeconds)
		}
		for sample := range before {
			if label, ok := strings.CutPrefix(sample, m.name+"_count{"+m.label+"="); ok {
				if _, ok := sums[strings.Trim(label, `"}`)]; !ok {
					t.Errorf("%s has no /v1/stats %q entry", sample, m.stat)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no metricTable entry is carried on both surfaces")
	}
}
