package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exposedShape masks every value out of a /metrics page: the HELP and
// TYPE comments stay whole, each sample keeps its name and labels.
func exposedShape(text string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out = append(out, line)
	}
	return out
}

// statKeyPaths lists the key paths of a decoded JSON document, sorted:
// "a.b" for nested objects, "a[]" for array elements (the union over
// all elements), and the bare path for an empty object or array.
func statKeyPaths(doc any) []string {
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if len(v) == 0 {
				set[path] = true
			}
			for k, child := range v {
				if path != "" {
					k = path + "." + k
				}
				walk(k, child)
			}
		case []any:
			if len(v) == 0 {
				set[path] = true
			}
			for _, child := range v {
				walk(path+"[]", child)
			}
		default:
			set[path] = true
		}
	}
	walk("", doc)
	var out []string
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestExpositionSurfacePinned pins the whole exposition surface after
// one request of each query class: the ordered /metrics HELP/TYPE
// lines and sample names with their labels (values masked), and the
// sorted key paths of /v1/stats. Both golden files live in testdata/.
func TestExpositionSurfacePinned(t *testing.T) {
	ts := newLifecycleServer(t, studentFixture(t))
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/query", queryRequest{SQL: fuseQuery}},
		{"/v1/query/stream", queryRequest{SQL: `SELECT Name FROM EE_Student ORDER BY Name`}},
		{"/v1/batch", batchRequest{Statements: []string{`SELECT FullName FROM CS_Students`, fuseQuery}}},
	} {
		if status, body := doJSON(t, ts, http.MethodPost, c.path, c.body); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, status, body)
		}
	}

	_, metrics := doJSON(t, ts, http.MethodGet, "/metrics", nil)
	_, stats := doJSON(t, ts, http.MethodGet, "/v1/stats", nil)
	var doc any
	if err := json.Unmarshal(stats, &doc); err != nil {
		t.Fatalf("stats: %v in %s", err, stats)
	}
	for _, c := range []struct {
		golden string
		got    []string
	}{
		{"exposition_metrics.golden", exposedShape(string(metrics))},
		{"exposition_stats.golden", statKeyPaths(doc)},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if !slices.Equal(c.got, want) {
			t.Errorf("%s changed:\n--- got\n%s\n--- want\n%s", c.golden,
				strings.Join(c.got, "\n"), strings.Join(want, "\n"))
		}
	}
}
