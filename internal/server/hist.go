package server

import (
	"fmt"
	"strconv"
	"strings"

	"hummer/internal/obs"
)

// latencyBounds are the fixed upper bounds (seconds, inclusive) of the
// query-latency and phase-duration histogram buckets. The range spans
// sub-millisecond warm cache hits up to the 60s default query timeout;
// one extra implicit +Inf bucket catches everything beyond. Fixed
// buckets are what lets a load generator cross-check its client-side
// percentiles against the server's.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// LatencySummary is the /v1/stats rendering of one latency histogram:
// count, total and estimated percentiles (interpolated from the fixed
// buckets, so they carry bucket-resolution error — the exact
// distribution is on /metrics for anyone who wants to do better).
type LatencySummary struct {
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

func latencySummary(s obs.HistSnapshot) LatencySummary {
	return LatencySummary{
		Count:      s.Count,
		SumSeconds: s.Seconds,
		P50Seconds: s.Quantile(0.50),
		P95Seconds: s.Quantile(0.95),
		P99Seconds: s.Quantile(0.99),
	}
}

// writeHistogram renders one labelled histogram series in the
// Prometheus text format: cumulative _bucket lines (le-convention,
// ending at +Inf), then _sum and _count. The family's HELP/TYPE header
// is the caller's.
func writeHistogram(b *strings.Builder, family, labelKey, labelValue string, snap obs.HistSnapshot) {
	label := fmt.Sprintf("%s=%q", labelKey, labelValue)
	var cum uint64
	for i, n := range snap.Buckets {
		cum += n
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = strconv.FormatFloat(snap.Bounds[i], 'g', -1, 64) // shortest exact decimal
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", family, label, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s} %s\n", family, label, formatFloat(snap.Seconds))
	fmt.Fprintf(b, "%s_count{%s} %d\n", family, label, snap.Count)
}
