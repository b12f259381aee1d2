package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestSupportedPercentileWantsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		p      float64
		ok     bool
		beyond int
	}{
		{1000, 0.95, 0.95, true, 50},
		{200, 0.95, 0.95, true, 10},  // exactly ten beyond: reported
		{199, 0.95, -1, true, 10},    // one short: the percentile moves down
		{100, 0.95, -1, true, 10},    // p95 of 100 has five beyond; p89.5 has ten
		{100, 0.50, 0.50, true, 50},  // medians are fine from 20 samples on
		{20, 0.50, -1, true, 10},     // nearest rank 9 of 20: ten beyond
		{19, 0.50, 0.50, false, 9},   // still the median, flagged unsupported
		{5, 0.95, 0.50, false, 2},    // never below the median
		{0, 0.95, 0.95, false, -1},   // nothing to read
		{12, 0.99, 0.50, false, 6},   // tails of tiny samples collapse to the median
		{400, 0.99, -1, true, 10},    // p99 of 400 has four beyond; p97.4 has ten
		{1100, 0.99, 0.99, true, 11}, // enough for a real p99
	} {
		p, ok := supportedPercentile(tc.n, tc.want)
		if ok != tc.ok {
			t.Errorf("n=%d want p%g: supported=%v, want %v", tc.n, tc.want*100, ok, tc.ok)
		}
		if tc.p >= 0 && p != tc.p {
			t.Errorf("n=%d want p%g: got p%g, want p%g", tc.n, tc.want*100, p*100, tc.p*100)
		}
		if p > tc.want {
			t.Errorf("n=%d: reported percentile p%g above the wanted p%g", tc.n, p*100, tc.want*100)
		}
		if tc.n > 0 {
			if got := beyond(tc.n, p); got != tc.beyond {
				t.Errorf("n=%d p%g: %d samples beyond, want %d", tc.n, p*100, got, tc.beyond)
			}
		}
	}
}

func TestTailReadsTheSupportedPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	v, s := tail(xs, 0.95)
	// Ten samples beyond out of 100 is the 90th value.
	if v != 90 || s.N != 100 || !s.Supported || s.Percentile >= 0.95 {
		t.Errorf("tail = %v, %+v; want the 90th value, a supported percentile below 0.95", v, s)
	}
	if s.Q1 != 25 || s.Med != 50 || s.Q3 != 75 {
		t.Errorf("quartiles = %v %v %v, want 25 50 75", s.Q1, s.Med, s.Q3)
	}
	if _, s := tail(nil, 0.5); s != nil {
		t.Errorf("tail of nothing has a summary: %+v", s)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func sp(id, parent int, start, end int64) span {
	return span{ID: id, Parent: parent, Op: 1, Start: start, End: end}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),  // root
		sp(2, 1, 10, 40),  // child
		sp(3, 2, 15, 25),  // grandchild: must not count against the root twice
		sp(4, 1, 30, 60),  // overlaps child 2 by [30,40)
		sp(5, 1, 90, 120), // sticks out past the root's end
		sp(6, 1, 70, 80),  // disjoint
		sp(7, 0, 200, 250),
		sp(8, 7, 200, 250), // covers its parent entirely
		sp(9, 7, 210, 220), // inside an interval already covered
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100 - (50 + 10 + 10), // [10,60) once, [70,80), [90,100)
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
		6: 10,
		7: 0,
		8: 50,
		9: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var rec *recorder
	if id := rec.start("x", 0, 0); id != 0 {
		t.Errorf("nil recorder handed out span id %d", id)
	}
	ran := false
	if d := rec.timed("x", 0, 0, func() { ran = true }); !ran || d < 0 {
		t.Errorf("nil recorder: ran=%v d=%v", ran, d)
	}
	if rec.snapshot() != nil {
		t.Error("nil recorder has spans")
	}
	on := newRecorder()
	parent := on.start("op", 0, 7)
	on.timed("child", parent, 7, func() {})
	on.end(parent)
	spans := on.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Errorf("recorded spans = %+v", spans)
	}
}

// fakeClock is the open loop's time source under test: time moves only
// when someone sleeps or the service says it took time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{}
	const (
		rate    = 100.0 // one request every 10 ms
		service = 2 * time.Millisecond
		stall   = 95 * time.Millisecond
		stallAt = 10
	)
	samples := runOpen(clk, rate, 40, 1, func(i int) bool {
		clk.now += service
		if i == stallAt {
			clk.now += stall
		}
		return true
	})
	for i, s := range samples {
		if want := time.Duration(i) * 10 * time.Millisecond; s.Due != want {
			t.Fatalf("request %d due at %v, want %v: due times must not drift with the stall", i, s.Due, want)
		}
	}
	// Before the stall every request goes out on time and takes the
	// service time.
	for _, s := range samples[:stallAt] {
		if s.late() != 0 || s.latency() != service {
			t.Errorf("before the stall: late=%v latency=%v", s.late(), s.latency())
		}
	}
	// The stalled request itself was sent on time.
	if s := samples[stallAt]; s.late() != 0 || s.latency() != service+stall {
		t.Errorf("stalled request: late=%v latency=%v", s.late(), s.latency())
	}
	// The stall ends 97 ms after request 10 was due; requests 11..19
	// were due meanwhile, go out late, and their latency from due time
	// carries the wait — not just the 2 ms the server spent on them.
	first := samples[stallAt+1]
	if want := 87 * time.Millisecond; first.late() != want {
		t.Errorf("first request after the stall sent %v late, want %v", first.late(), want)
	}
	if want := 89 * time.Millisecond; first.latency() != want {
		t.Errorf("first request after the stall: latency from due time %v, want %v", first.latency(), want)
	}
	late := 0
	for _, s := range samples[stallAt+1:] {
		if s.late() > 0 {
			late++
			if s.latency() != s.late()+service {
				t.Errorf("late request: latency %v != lateness %v + service %v", s.latency(), s.late(), service)
			}
		}
	}
	// Each later request recovers 8 ms of the 87: eleven are late.
	if late != 11 {
		t.Errorf("%d requests sent late after the stall, want 11", late)
	}
	if last := samples[len(samples)-1]; last.late() != 0 || last.latency() != service {
		t.Errorf("the generator never caught up: last request late=%v latency=%v", last.late(), last.latency())
	}
	if backlogGrows(samples, time.Millisecond) {
		t.Error("a stall the generator recovered from was reported as a growing backlog")
	}
}

func TestOpenLoopGrowingBacklog(t *testing.T) {
	clk := &fakeClock{}
	// Service time above the arrival gap: every request is later than
	// the one before.
	samples := runOpen(clk, 100, 60, 1, func(int) bool {
		clk.now += 12 * time.Millisecond
		return true
	})
	if !backlogGrows(samples, 5*time.Millisecond) {
		t.Error("an overloaded open loop was not reported as a growing backlog")
	}
	if got, want := samples[59].late(), 59*2*time.Millisecond; got != want {
		t.Errorf("last request %v late, want %v", got, want)
	}
}

func TestSchedulesAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := zipfSchedule(42, 1024, 4096), zipfSchedule(42, 1024, 4096), zipfSchedule(43, 1024, 4096)
	if len(a) != 4096 {
		t.Fatalf("schedule has %d picks, want 4096", len(a))
	}
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different schedule")
	}
	if same(a, c) {
		t.Error("different seed, same schedule")
	}
	// Frequencies follow 1/rank exactly, whatever the seed: the sorted
	// count profiles are identical.
	profile := func(xs []int) []int {
		counts := make([]int, 1024)
		for _, x := range xs {
			counts[x]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		return counts
	}
	pa, pc := profile(a), profile(c)
	if !same(pa, pc) {
		t.Error("the frequency profile depends on the seed")
	}
	if pa[0] < 500 || pa[0] > 600 || pa[1023] > 1 {
		t.Errorf("hottest statement picked %d times, coldest %d: not a Zipf(1) profile over 4096 picks", pa[0], pa[1023])
	}

	// Inputs too: the fingerprint covers the generated relations.
	p1, p2, p3 := personPair(42, 50, "a", "b", nil), personPair(42, 50, "a", "b", nil), personPair(43, 50, "a", "b", nil)
	f := func(p pair) string { return fingerprintOf("s", p.left.Rel, p.right.Rel) }
	if f(p1) != f(p2) {
		t.Error("same seed, different input fingerprint")
	}
	if f(p1) == f(p3) {
		t.Error("different seed, same input fingerprint")
	}
	if fingerprintOf("s", p1.left.Rel) == fingerprintOf("t", p1.left.Rel) {
		t.Error("the fingerprint ignores the schedule")
	}
}

func TestWorkloadFingerprintsFollowTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up workloads")
	}
	for _, w := range workloads {
		if w.name == "scan_join_stream" {
			continue // 40 000 generated rows three times over; the others cover the mechanism
		}
		fp := func(seed int64) string {
			inst, err := w.setup(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			defer inst.close()
			return inst.fingerprint()
		}
		a, b, c := fp(42), fp(42), fp(43)
		if a != b {
			t.Errorf("%s: same seed, fingerprints %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 share fingerprint %s", w.name, a)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(def.Name) {
			t.Errorf("metric name %q is malformed", def.Name)
		}
		if seen[def.Name] {
			t.Errorf("metric name %q is declared twice", def.Name)
		}
		seen[def.Name] = true
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("%s: direction %q", def.Name, def.Better)
		}
	}
	if len(endToEnd) != 15 {
		t.Errorf("%d end-to-end metrics, want 15", len(endToEnd))
	}
	if len(perLayer) >= 128 {
		t.Errorf("%d per-layer metrics, the manifest allows fewer than 128", len(perLayer))
	}
	for name, fb := range fallbackFor {
		if !seen[name] || !seen[fb] {
			t.Errorf("fallback %s -> %s names an undeclared metric", name, fb)
		}
	}
	wseen := map[string]bool{}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || wseen[w.name] {
			t.Errorf("workload name %q malformed or repeated", w.name)
		}
		wseen[w.name] = true
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), the program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest declares %d metrics, the program emits %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, def)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.Bound):
				t.Errorf("%s: manifest bound %v, program %v", def.Name, g.Bound, def.Bound)
			case bounded && (def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	largest := 0.0
	for _, def := range endToEnd {
		if def.Bound > largest {
			largest = def.Bound
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound (%v)", largest)
	}
}

func TestEndToEndValuesEmitEveryDeclaredMetric(t *testing.T) {
	m := &measurement{
		Units: 3, Wall: time.Second, Alloc: 3 << 20, CPU: 30 * time.Millisecond,
		Rows: 300, RowsTime: time.Second,
		Ops: []opSample{
			{Kind: "fuse", Lat: 10 * time.Millisecond, TTFR: -1},
			{Kind: "join", Lat: 30 * time.Millisecond, TTFR: -1},
			{Kind: "stream", Lat: 20 * time.Millisecond, TTFR: time.Millisecond},
			{Kind: "fuse", Lat: time.Hour, TTFR: -1, Failed: true},
		},
	}
	vals := endToEndValues(m, 0.5, nil)
	if len(vals) != len(endToEnd) {
		t.Fatalf("%d values for %d declared metrics", len(vals), len(endToEnd))
	}
	by := map[string]metricValue{}
	for i, v := range vals {
		if v.Name != endToEnd[i].Name || v.Unit != endToEnd[i].Unit {
			t.Errorf("value %d is %s [%s], declared %s [%s]", i, v.Name, v.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if v.Value == 0 {
			t.Errorf("%s is 0: every end-to-end metric must be non-zero on every workload", v.Name)
		}
		by[v.Name] = v
	}
	if by["ok_ratio"].Value != 0.75 {
		t.Errorf("ok_ratio = %v, want 3 of 4", by["ok_ratio"].Value)
	}
	if by["lat_p50_ms"].Value != 20 {
		t.Errorf("lat_p50_ms = %v: the failed operation's hour must not count", by["lat_p50_ms"].Value)
	}
	if by["join_p50_ms"].Value != 30 || by["join_p50_ms"].Fallback != "" {
		t.Errorf("join_p50_ms = %+v, want the join's own 30 ms", by["join_p50_ms"])
	}
	if by["ttfr_p50_ms"].Value != 1 {
		t.Errorf("ttfr_p50_ms = %v, want the stream's 1 ms", by["ttfr_p50_ms"].Value)
	}
	if v := by["write_p50_ms"]; v.Fallback != "lat_p50_ms" || v.Value != by["lat_p50_ms"].Value {
		t.Errorf("write_p50_ms = %+v, want the lat_p50_ms fallback", v)
	}
	if v := by["slo_ok_ratio"]; v.Fallback != "ok_ratio" || v.Value != 0.75 {
		t.Errorf("slo_ok_ratio = %+v, want the ok_ratio fallback", v)
	}

	// With an open-loop phase the two served metrics are its own, and a
	// failed request misses the limit.
	m.OpenLimit = 20 * time.Millisecond
	m.Open = []openSample{
		{Due: 0, Sent: 0, Done: 5 * time.Millisecond, OK: true},
		{Due: 0, Sent: 0, Done: 25 * time.Millisecond, OK: true},
		{Due: 0, Sent: 0, Done: time.Millisecond, OK: false},
		{Due: 0, Sent: 0, Done: 15 * time.Millisecond, OK: true},
	}
	for _, v := range endToEndValues(m, 0.5, nil) {
		if v.Name == "slo_ok_ratio" && (v.Value != 0.5 || v.Fallback != "") {
			t.Errorf("slo_ok_ratio = %+v, want 2 of 4 within the limit", v)
		}
	}
}

func TestHistP95ReadsTheDeltaBucket(t *testing.T) {
	bounds := []float64{0.0001, 0.001, 0.01}
	before := []uint64{100, 0, 0, 0}
	after := []uint64{119, 1, 0, 0} // 20 new observations, 19 in the first bucket
	if got := histP95Micros(bounds, before, after); got != 100 {
		t.Errorf("p95 = %v us, want the first bucket's 100 us bound", got)
	}
	after = []uint64{118, 2, 0, 0}
	if got := histP95Micros(bounds, before, after); got != 1000 {
		t.Errorf("p95 = %v us, want the second bucket's 1000 us bound", got)
	}
	if got := histP95Micros(bounds, before, before); got != 0 {
		t.Errorf("p95 of no observations = %v", got)
	}
}
