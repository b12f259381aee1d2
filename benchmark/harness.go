package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"hummer"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup generates the inputs from the seed, registers them, starts
	// whatever serves them and issues the first (cache-filling)
	// operation. Its wall time is setup_s.
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload, ready to be checked, measured and
// traced.
type instance interface {
	// fingerprint identifies the generated inputs and the operation
	// schedule: equal for equal seeds, different otherwise.
	fingerprint() string
	// check runs the workload's share of the correctness gate.
	check(c *checker)
	// measure runs the untraced timed window: a closed (and for
	// warm_serve also an open) loop lasting d in all, the first tenth
	// of it warm-up.
	measure(d time.Duration) *measurement
	// trace runs the traced pass and returns the per-layer values the
	// workload produces (layers it bypasses are left out and reported
	// 0) and how many of its operations failed. scale stretches the
	// fixed operation counts (1 = a 20 s run).
	trace(rec *recorder, scale float64) (values map[string]float64, failed int)
	close()
}

// opSample is one timed operation of a closed loop.
type opSample struct {
	Kind string
	Lat  time.Duration
	// TTFR is the time to the first result row on stream operations,
	// negative elsewhere.
	TTFR   time.Duration
	Rows   int
	Failed bool
}

// measurement is the raw outcome of one untraced timed window.
type measurement struct {
	Ops []opSample
	// Units is what ops_per_s, alloc_kb_per_op and cpu_ms_per_op count:
	// operations, except on replace_refuse where it is whole cycles.
	Units int
	Wall  time.Duration
	Alloc uint64
	CPU   time.Duration
	// Rows over RowsTime is rows_per_s; each workload states what rows
	// it counts.
	Rows     int
	RowsTime time.Duration
	// Open holds the open-loop phase (warm_serve only).
	Open []openSample
	// OpenLimit is the latency limit the open-loop phase is held to.
	OpenLimit time.Duration
}

// usage snapshots the process's allocation and CPU counters.
type usage struct {
	alloc uint64
	cpu   time.Duration
	at    time.Time
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{alloc: ms.TotalAlloc, cpu: cpu, at: time.Now()}
}

// warmShare is the part of every timed window that is run and thrown
// away: caches fill, the heap reaches its working size.
const warmShare = 0.1

// closedLoop drives one client: step issues the next operation (or,
// on replace_refuse, the next cycle), appends its samples and returns
// how many units it completed. The first warmShare of d is discarded.
func closedLoop(d time.Duration, step func(out *[]opSample) int) *measurement {
	var scratch []opSample
	warmEnd := time.Now().Add(time.Duration(float64(d) * warmShare))
	for time.Now().Before(warmEnd) {
		scratch = scratch[:0]
		step(&scratch)
	}
	runtime.GC()
	m := &measurement{}
	before := readUsage()
	end := before.at.Add(time.Duration(float64(d) * (1 - warmShare)))
	for time.Now().Before(end) {
		m.Units += step(&m.Ops)
	}
	after := readUsage()
	m.Wall = after.at.Sub(before.at)
	m.Alloc = after.alloc - before.alloc
	m.CPU = after.cpu - before.cpu
	return m
}

// metricValue is one reported metric with what result.json keeps
// beside it.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Fallback names the metric standing in when the workload has no
	// operation of the kind this metric names.
	Fallback string   `json:"fallback,omitempty"`
	Samples  *summary `json:"samples,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects the latencies (ms) of the non-failed samples
// that keep returns true for.
func latencies(ops []opSample, keep func(opSample) bool) []float64 {
	var xs []float64
	for _, o := range ops {
		if !o.Failed && keep(o) {
			xs = append(xs, ms(o.Lat))
		}
	}
	return xs
}

// endToEndValues derives the fifteen end-to-end metrics from a
// measurement. setupS is the median set-up time.
func endToEndValues(m *measurement, setupS float64, setupSamples *summary) []metricValue {
	vals := map[string]metricValue{}
	put := func(name string, v float64, s *summary) {
		vals[name] = metricValue{Name: name, Value: v, Samples: s}
	}
	put("setup_s", setupS, setupSamples)

	attempted, failed := m.attempted()
	units := float64(m.Units)
	put("ops_per_s", units/m.Wall.Seconds(), nil)
	put("ok_ratio", float64(attempted-failed)/float64(attempted), nil)
	put("alloc_kb_per_op", float64(m.Alloc)/1024/units, nil)
	put("cpu_ms_per_op", ms(m.CPU)/units, nil)
	put("rows_per_s", float64(m.Rows)/m.RowsTime.Seconds(), nil)

	all := latencies(m.Ops, func(opSample) bool { return true })
	v, s := windowedTail(all, 0.95)
	put("lat_p95_ms", v, s)
	v, s = tail(all, 0.50)
	put("lat_p50_ms", v, s)

	var ttfr []float64
	for _, o := range m.Ops {
		if !o.Failed && o.TTFR >= 0 {
			ttfr = append(ttfr, ms(o.TTFR))
		}
	}
	if v, s = tail(ttfr, 0.50); s != nil {
		put("ttfr_p50_ms", v, s)
	}
	for metric, kind := range map[string]string{
		"join_p50_ms":             "join",
		"write_p50_ms":            "write",
		"read_after_write_p50_ms": "read_after_write",
		"bystander_p50_ms":        "bystander",
	} {
		xs := latencies(m.Ops, func(o opSample) bool { return o.Kind == kind })
		if v, s = tail(xs, 0.50); s != nil {
			put(metric, v, s)
		}
	}
	if len(m.Open) > 0 {
		var xs []float64
		within := 0
		for _, o := range m.Open {
			if !o.OK {
				continue // a failed request misses the limit and has no latency
			}
			xs = append(xs, ms(o.latency()))
			if o.latency() <= m.OpenLimit {
				within++
			}
		}
		v, s = windowedTail(xs, 0.95)
		put("open_p95_ms", v, s)
		put("slo_ok_ratio", float64(within)/float64(len(m.Open)), nil)
	}

	out := make([]metricValue, 0, len(endToEnd))
	for _, def := range endToEnd {
		mv, ok := vals[def.Name]
		if !ok {
			fb := fallbackFor[def.Name]
			mv = vals[fb]
			mv.Name, mv.Fallback = def.Name, fb
		}
		mv.Unit = def.Unit
		out = append(out, mv)
	}
	return out
}

// attempted counts every operation issued in the timed window, closed
// and open loop, and how many of them failed, were refused or
// answered wrongly.
func (m *measurement) attempted() (attempted, failed int) {
	for _, o := range m.Ops {
		attempted++
		if o.Failed {
			failed++
		}
	}
	for _, o := range m.Open {
		attempted++
		if !o.OK {
			failed++
		}
	}
	return attempted, failed
}

// --- Result identity ---------------------------------------------------------

// quickSum is the cheap order-sensitive checksum every timed
// operation's result is compared by; the SHA-256 digests of the
// correctness gate are too slow to take inside a timed loop.
func quickSum(rel *hummer.Relation) uint64 {
	var h uint64
	for _, row := range rel.Rows() {
		h = foldRow(h, row)
	}
	return h
}

// foldRow adds one row to a quickSum, so a streamed drain can be
// summed as it arrives and compared with the materialized result.
func foldRow(h uint64, row hummer.Row) uint64 {
	return (h ^ row.Hash()) * 1099511628211
}

// digest is the SHA-256 of a relation's column names and every cell's
// text, in order.
func digest(rel *hummer.Relation) string {
	h := sha256.New()
	for _, n := range rel.Schema().Names() {
		fmt.Fprintf(h, "%d:%s|", len(n), n)
	}
	for _, row := range rel.Rows() {
		for _, v := range row {
			t := v.Text()
			fmt.Fprintf(h, "%d:%d:%s|", v.Kind(), len(t), t)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
