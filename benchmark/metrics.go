package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef declares one metric. The end-to-end and per-layer lists
// below are the single place names, units, directions and bounds live
// in Go; BENCHMARK.json at the repository root mirrors them and
// TestManifestMatchesDeclaredMetrics keeps the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 for per-layer
	// metrics, which are reported and never gated.
	Bound float64
}

// endToEnd are the metrics a user of HumMer sees, measured with the
// span recorder off. Every workload reports every one of them, because
// the driver's protocol has one flat metric set; where a metric names
// an operation kind a workload does not have, fallbackFor says which
// of the workload's own numbers stands in (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"read_after_write_p50_ms", "ms", "lower", 0.25},
	{"bystander_p50_ms", "ms", "lower", 0.25},
	{"open_p95_ms", "ms", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.02},
}

// fallbackFor names the metric reported in place of one whose
// operation kind the workload does not run. The rule is uniform: a
// median falls back to the median of all operations, a tail to the
// tail of all operations, the latency-limit ratio to the plain
// success ratio.
var fallbackFor = map[string]string{
	"ttfr_p50_ms":             "lat_p50_ms",
	"join_p50_ms":             "lat_p50_ms",
	"write_p50_ms":            "lat_p50_ms",
	"read_after_write_p50_ms": "lat_p50_ms",
	"bystander_p50_ms":        "lat_p50_ms",
	"open_p95_ms":             "lat_p95_ms",
	"slo_ok_ratio":            "ok_ratio",
}

// serverClasses are the six request classes of warm_serve, in the
// order their weights are listed in workload_serve.go.
var serverClasses = []string{"warm_fuse", "warm_fuse_lineage", "select_mat", "select_stream", "fuse_stream", "batch"}

// cacheKinds are the five artifact-cache tiers of internal/qcache.
var cacheKinds = []string{"plan", "match", "detect", "fused", "cse"}

// openRates names the three fixed open-loop arrival rates of
// warm_serve phase B (requests per second). Chosen once against the
// phase-A closed-loop throughput of the reference 2-core box (1 900
// requests per second in calm minutes, 1 500 in busy ones), then
// frozen: a rate that moved with the program would hide the very
// regressions it is for. The mid rate, which the end-to-end metrics
// use, sits at a third of that throughput and not at half: above 40 %
// utilisation the tail is set by queueing, and queueing multiplies
// whatever speed the shared box happens to have that minute.
var openRates = [3]int{300, 600, 1200}

// openLimit is the latency limit of the served path: the 95th
// percentile, timed from each request's due time, at the mid rate.
const openLimit = 20 * time.Millisecond

// perLayer are the metrics of single layers, from the traced run.
// Layer = module name. A layer a workload bypasses reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("sql.parse_us", "us", "lower")

	add("plan.self_ms", "ms", "lower")
	add("plan.fused_hit_us", "us", "lower")
	add("plan.stream_ttfr_us", "us", "lower")
	add("plan.stream_stall_p95_us", "us", "lower")
	add("plan.stream_rows", "count", "higher")

	add("core.pipeline_ms", "ms", "lower")
	add("core.self_ms", "ms", "lower")
	add("core.merged_rows", "count", "lower")

	add("dumas.match_ms", "ms", "lower")
	add("dumas.candidate_pairs", "count", "lower")
	add("dumas.scored", "count", "lower")
	add("dumas.scored_ratio", "ratio", "higher")
	add("dumas.f1", "ratio", "higher")
	add("dumas.par_speedup", "ratio", "higher")

	add("dupdetect.detect_ms", "ms", "lower")
	add("dupdetect.candidate_pairs", "count", "lower")
	add("dupdetect.filtered_out", "count", "higher")
	add("dupdetect.compared", "count", "lower")
	add("dupdetect.filter_ratio", "ratio", "higher")
	add("dupdetect.skipped_blocks", "count", "lower")
	add("dupdetect.f1", "ratio", "higher")
	add("dupdetect.par_speedup", "ratio", "higher")

	add("strsim.edit_ns", "ns", "lower")
	add("strsim.cosine_ns", "ns", "lower")

	add("parshard.dispatch_ns_per_item", "ns", "lower")

	add("fusion.fuse_ms", "ms", "lower")
	add("fusion.rows_in", "count", "lower")
	add("fusion.groups", "count", "lower")

	add("lineage.overhead_ratio", "ratio", "lower")

	add("engine.scan_rows_per_s", "1/s", "higher")
	add("engine.filter_sort_ms", "ms", "lower")
	add("engine.join_ms", "ms", "lower")
	add("engine.join_rows_out", "count", "lower")
	add("engine.join_par_speedup", "ratio", "higher")

	add("qcache.fingerprint_ms", "ms", "lower")
	add("qcache.do_hit_ns", "ns", "lower")
	add("qcache.hit_ratio", "ratio", "higher")
	add("qcache.entries", "count", "lower")
	for _, k := range cacheKinds {
		add("qcache."+k+".hits", "count", "higher")
		add("qcache."+k+".misses", "count", "lower")
		add("qcache."+k+".shared", "count", "higher")
		add("qcache."+k+".evictions", "count", "lower")
	}

	add("metadata.register_ms", "ms", "lower")
	add("metadata.replace_ms", "ms", "lower")

	add("server.overhead_us", "us", "lower")
	for _, c := range serverClasses {
		add("server.class."+c+".p50_ms", "ms", "lower")
		add("server.class."+c+".p95_ms", "ms", "lower")
	}
	add("server.resp_bytes_per_op", "B", "lower")
	for _, r := range openRates {
		add(openRateMetric(r), "ms", "lower")
	}
	add("server.open.max_rate_ok", "1/s", "higher")
	add("server.rejected", "count", "lower")
	add("server.count_mismatch", "count", "lower")

	add("loadgen.late_p95_ms", "ms", "lower")

	add("trace.overhead_ratio", "ratio", "lower")
	return out
}

func openRateMetric(rate int) string {
	return "server.open.r" + strconv.Itoa(rate) + ".p95_ms"
}

// --- Sample statistics ------------------------------------------------------

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a tail read off fewer is one or two slow operations,
// not a property of the system.
const minBeyond = 10

// supportedPercentile returns the percentile actually reported for a
// wanted one over n samples: the wanted percentile when at least
// minBeyond samples lie beyond it, otherwise the highest one that has
// them, never below the median. ok is false when even the result has
// fewer than minBeyond samples beyond it (n < 2*minBeyond).
func supportedPercentile(n int, want float64) (p float64, ok bool) {
	if n <= 0 {
		return want, false
	}
	if beyond(n, want) >= minBeyond {
		return want, true
	}
	// The half sample keeps p·n off the integer, where rounding in
	// the product would move the rank by one.
	p = (float64(n-minBeyond) - 0.5) / float64(n)
	if p < 0.5 {
		return math.Min(want, 0.5), false
	}
	return p, true
}

// beyond counts the samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the 0-based nearest-rank index of percentile p in n sorted
// samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile reads the nearest-rank percentile off sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// summary is what result.json records next to every timing metric.
type summary struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	Med float64 `json:"median"`
	Q3  float64 `json:"q3"`
	// Percentile is the percentile the metric's value was read at
	// (0.5 for medians; for tails the supported percentile, which is
	// lower than the nominal one when the run was short).
	Percentile float64 `json:"percentile"`
	// Supported is false when fewer than minBeyond samples lie beyond
	// Percentile.
	Supported bool `json:"supported"`
}

// tail returns the value of the wanted percentile under the
// supportedPercentile rule, with its summary. xs is sorted in place.
func tail(xs []float64, want float64) (float64, *summary) {
	if len(xs) == 0 {
		return 0, nil
	}
	sort.Float64s(xs)
	p, ok := supportedPercentile(len(xs), want)
	return percentile(xs, p), &summary{
		N:          len(xs),
		Q1:         percentile(xs, 0.25),
		Med:        percentile(xs, 0.50),
		Q3:         percentile(xs, 0.75),
		Percentile: p,
		Supported:  ok,
	}
}

// tailWindows is into how many consecutive stretches a run's samples
// are cut for a tail percentile, and windowSamples how many samples a
// stretch needs for the 95th percentile to have minBeyond beyond it.
const (
	tailWindows   = 5
	windowSamples = 200
)

// windowedTail reads a tail percentile the steady way: the samples,
// in the order they were taken, are cut into up to tailWindows
// consecutive stretches of at least windowSamples each, the percentile
// is read off every stretch, and the median of those is reported. A
// disturbance that hits one stretch of a run (a neighbour on the box,
// a long collection) moves a whole-run tail; it does not move the
// median of five. Runs too short to cut are read whole. The summary
// describes all samples.
func windowedTail(xs []float64, want float64) (float64, *summary) {
	windows := min(tailWindows, len(xs)/windowSamples)
	if windows < 2 {
		return tail(xs, want)
	}
	per := make([]float64, windows)
	for w := range per {
		part := append([]float64(nil), xs[w*len(xs)/windows:(w+1)*len(xs)/windows]...)
		per[w], _ = tail(part, want)
	}
	_, s := tail(xs, want)
	return median(per), s
}

// median is the plain median of xs (0 when empty); xs is sorted in
// place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// spread is the distance between the first and third quartile as a
// share of the median, by linear interpolation between order
// statistics the way Python's statistics.quantiles(n=4) does it — the
// driver's acceptance rule, reproduced for -agree.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// exclusive method: position k*(n+1)/4, 1-based
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
