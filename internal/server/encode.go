package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"hummer"
	"hummer/internal/value"
)

// Result rows, their lineage and the fusion summary are appended as
// JSON straight from the immutable values, with no boxed copy of the
// rows in between. Each append* function writes the bytes
// encoding/json (HTML escaping off) writes for the same document,
// except that a non-finite float, which encoding/json refuses, is
// written as null, as the engine answers a division by zero.

// bodyPool holds response buffers between requests, as encoding/json
// pools its own encode state.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody answers 200 with the JSON document that fill appends, in
// one Write.
func writeBody(w http.ResponseWriter, fill func([]byte) []byte) {
	bp := bodyPool.Get().(*[]byte)
	*bp = append(fill((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp) // a failed write means the client is gone: nothing left to tell it
	bodyPool.Put(bp)
}

// appendString appends s as a JSON string. Printable ASCII other than
// the quote and the backslash, and valid UTF-8 other than U+2028 and
// U+2029, is copied; anything else goes through encoding/json, so
// escapes and invalid UTF-8 come out as it writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r < utf8.RuneSelf || r == utf8.RuneError || r == '\u2028' || r == '\u2029' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendStrings appends ss as a JSON array of strings.
func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json does (the ES6 number form:
// exponent notation below 1e-6 and from 1e21 on, without a padded
// exponent), and a non-finite f as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// appendCell appends one cell JSON-natively: NULL → null, numerics
// and booleans natively, times as RFC 3339 strings, strings as-is.
func appendCell(b []byte, v hummer.Value) []byte {
	switch v.Kind() {
	case value.KindNull:
		return append(b, "null"...)
	case value.KindInt:
		return strconv.AppendInt(b, v.Int(), 10)
	case value.KindFloat:
		return appendFloat(b, v.Float())
	case value.KindBool:
		return strconv.AppendBool(b, v.Bool())
	case value.KindTime:
		// RFC 3339 text is printable ASCII without quotes or backslashes.
		b = append(b, '"')
		b = v.Time().AppendFormat(b, time.RFC3339)
		return append(b, '"')
	default:
		return appendString(b, v.Str())
	}
}

// appendRow appends one row as a JSON array of cells.
func appendRow(b []byte, row hummer.Row) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCell(b, v)
	}
	return append(b, ']')
}

// appendLineageRow appends one row's per-cell lineage: for each cell
// its column and the contributing source rows as "source:row".
func appendLineageRow(b []byte, cols []string, rowLin []hummer.LineageSet) []byte {
	b = append(b, '[')
	for j, set := range rowLin {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"column":`...)
		b = appendString(b, cols[j])
		b = append(b, `,"origins":[`...)
		for k := range set.Len() {
			if k > 0 {
				b = append(b, ',')
			}
			o := set.At(k)
			// The escaped source with its closing quote replaced: ":" and
			// digits never need escaping.
			b = appendString(b, o.Source)
			b = append(b[:len(b)-1], ':')
			b = strconv.AppendInt(b, int64(o.Row), 10)
			b = append(b, '"')
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// appendSummary appends a fusion statement's pipeline summary.
func appendSummary(b []byte, s *hummer.FusionSummary) []byte {
	for _, f := range [...]struct {
		key string
		n   int
	}{
		{`{"sources":`, s.Sources},
		{`,"merged_rows":`, s.MergedRows},
		{`,"correspondences":`, s.Correspondences},
		{`,"clusters":`, s.Clusters},
		{`,"duplicate_pairs":`, s.DuplicatePairs},
		{`,"borderline_pairs":`, s.BorderlinePairs},
	} {
		b = strconv.AppendInt(append(b, f.key...), int64(f.n), 10)
	}
	return append(b, '}')
}

// appendResult appends the fields of a materialized result, without
// braces: columns, rows, row_count, then fusion (fusion statements)
// and lineage (when asked for and present). omitEmpty leaves out empty
// columns and rows, as a /v1/batch item does.
func appendResult(b []byte, res *hummer.Result, lineage, omitEmpty bool) []byte {
	cols, n := res.Rel.Schema().Names(), res.Rel.Len()
	if len(cols) > 0 || !omitEmpty {
		b = append(b, `"columns":`...)
		b = append(appendStrings(b, cols), ',')
	}
	if n > 0 || !omitEmpty {
		b = append(b, `"rows":[`...)
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRow(b, res.Rel.Row(i))
		}
		b = append(b, "],"...)
	}
	b = append(b, `"row_count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	if res.Summary != nil {
		b = appendSummary(append(b, `,"fusion":`...), res.Summary)
	}
	if lineage && len(res.Lineage) > 0 {
		b = append(b, `,"lineage":[`...)
		for i, rowLin := range res.Lineage {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendLineageRow(b, cols, rowLin)
		}
		b = append(b, ']')
	}
	return b
}
