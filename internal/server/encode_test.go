package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"hummer"
	"hummer/internal/lineage"
	"hummer/internal/value"
)

// refCell maps a cell to the Go value that encoding/json encodes as
// the cell's JSON: the reference appendCell is held to.
func refCell(v hummer.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindBool:
		return v.Bool()
	case value.KindTime:
		return v.Time().Format(time.RFC3339)
	default:
		return v.Str()
	}
}

// refJSON encodes v as encoding/json does with HTML escaping off,
// without the trailing newline; ok is false when it refuses v.
func refJSON(v any) (string, bool) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return "", false
	}
	return strings.TrimSuffix(buf.String(), "\n"), true
}

// FuzzAppendCell holds appendCell to encoding/json over refCell's
// mapping — every kind, every float, every string — with null where
// encoding/json refuses a non-finite float; and appendLineageRow to
// the []cellLineage shape lineage once had, source names included.
func FuzzAppendCell(f *testing.F) {
	for _, s := range []string{"plain", `quo"te\`, "<&>", "tab\t\x00\x7f", "ls\u2028ps\u2029", "bad\xff\xe2\x80", "surrogate\xed\xa0\x80", "lit\ufffd", "héllo 日本", ""} {
		f.Add(uint8(value.KindString), s, int64(-3), 1e-7, true, int64(0))
	}
	for _, x := range []float64{0.000001, 1e-7, 1.2e23, 1e21, 1e20, -0.5, 5e-324, math.MaxFloat64, math.Inf(1), math.NaN()} {
		f.Add(uint8(value.KindFloat), "", int64(0), x, false, int64(0))
	}
	f.Add(uint8(value.KindTime), "", int64(0), 0.0, false, int64(1125393300))
	f.Add(uint8(value.KindInt), "", int64(math.MinInt64), 0.0, false, int64(0))
	f.Add(uint8(value.KindNull), "", int64(0), 0.0, false, int64(0))
	f.Fuzz(func(t *testing.T, kind uint8, s string, i int64, x float64, bl bool, sec int64) {
		var v hummer.Value
		switch value.Kind(kind % 6) {
		case value.KindString:
			v = value.NewString(s)
		case value.KindInt:
			v = value.NewInt(i)
		case value.KindFloat:
			v = value.NewFloat(x)
		case value.KindBool:
			v = value.NewBool(bl)
		case value.KindTime:
			v = value.NewTime(time.Unix(sec%(1<<35), 0))
		}
		want, ok := refJSON(refCell(v))
		if !ok {
			want = "null"
		}
		if got := string(appendCell(nil, v)); got != want {
			t.Fatalf("appendCell(%v) = %s, want %s", v, got, want)
		}

		set := lineage.Merge(lineage.From(s, int(i)), lineage.From("src", 0))
		var origins []string
		for _, o := range set.Origins() {
			origins = append(origins, fmt.Sprintf("%s:%d", o.Source, o.Row))
		}
		want, _ = refJSON([]cellLineage{{Column: s, Origins: origins}})
		if got := string(appendLineageRow(nil, []string{s}, []hummer.LineageSet{set})); got != want {
			t.Fatalf("appendLineageRow = %s, want %s", got, want)
		}
	})
}

// TestAppendSummaryMatchesJSON keeps appendSummary in step with the
// summary's JSON form: every field set to a distinct value, a field
// added to the summary but not to appendSummary fails here.
func TestAppendSummaryMatchesJSON(t *testing.T) {
	var s hummer.FusionSummary
	rv := reflect.ValueOf(&s).Elem()
	for i := range rv.NumField() {
		rv.Field(i).SetInt(int64(i*7 + 1))
	}
	want, _ := refJSON(&s)
	if got := string(appendSummary(nil, &s)); got != want {
		t.Errorf("appendSummary = %s, want %s", got, want)
	}
}

// TestNonFiniteFloatEncodesNull: an overflowing float cell (1e308 * 10
// is +Inf) answers null on every result endpoint, and the stream ends
// with its summary trailer instead of counting a client disconnect.
func TestNonFiniteFloatEncodesNull(t *testing.T) {
	ts := newTestServer(t)
	if status, body := doJSON(t, ts, http.MethodPost, "/v1/sources", registerRequest{
		Alias: "t", Kind: "inline", Columns: []string{"x"}, Rows: [][]string{{"1e308"}},
	}); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	const sql = "SELECT x * 10 AS y FROM t"

	status, body := doJSON(t, ts, http.MethodPost, "/v1/query", queryRequest{SQL: sql})
	if want := `{"columns":["y"],"rows":[[null]],"row_count":1}` + "\n"; status != http.StatusOK || string(body) != want {
		t.Errorf("query: %d %q, want %q", status, body, want)
	}

	status, body = doJSON(t, ts, http.MethodPost, "/v1/query/stream", queryRequest{SQL: sql})
	want := `{"type":"schema","columns":["y"]}` + "\n" + `{"type":"row","row":[null]}` + "\n" + `{"type":"summary","row_count":1}` + "\n"
	if status != http.StatusOK || string(body) != want {
		t.Errorf("stream: %d %q, want %q", status, body, want)
	}
	if st := serverStats(t, ts); st.ClientDisconnects != 0 {
		t.Errorf("client disconnects = %d, want 0", st.ClientDisconnects)
	}

	status, body = doJSON(t, ts, http.MethodPost, "/v1/batch", batchRequest{Statements: []string{sql, "SELECT x FROM t"}})
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil || len(resp.Results) != 2 {
		t.Fatalf("batch: %d %v %q", status, err, body)
	}
	if got := resp.Results[0].Rows; len(got) != 1 || got[0][0] != nil {
		t.Errorf("batch statement 0 rows = %v, want [[null]]", got)
	}
	if got := resp.Results[1].Rows; len(got) != 1 || got[0][0] != 1e308 {
		t.Errorf("batch statement 1 rows = %v, want [[1e308]]", got)
	}
}
