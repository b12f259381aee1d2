// Command benchmark is HumMer's benchmark: five named workloads,
// fifteen end-to-end metrics measured with tracing off, and a traced
// run that attributes time and work to the program's layers. See
// README.md beside this file; BENCHMARK.json at the repository root
// declares the workloads, metrics and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists the five workloads; names are normative.
var workloads = []workload{
	{"cold_fuse", "ad-hoc FUSE BY with the cache off: matching, detection and fusion do the work; server, cache and SQL engine do none", setupColdFuse},
	{"warm_serve", "hummerd over loopback HTTP with a working set that fits the cache: server and cache tiers do the work; matching and detection run once in set-up", setupWarmServe},
	{"scan_join_stream", "plain SQL over 40 000 rows: scans, a 20k x 20k hash join and the streaming path do the work; the fusion layers do none", setupScanJoin},
	{"replace_refuse", "writes beside reads: each ReplaceTable forces a re-fuse while an untouched pair keeps being read warm", setupReplaceRefuse},
	{"cache_churn", "1 024 statements picked Zipf-wise against 256 cache entries per tier: the working set does not fit, tiers evict", setupCacheChurn},
}

const outDir = "benchmark/out"

// setupReps is how often each untraced run sets the workload up; the
// median is setup_s, and the last instance is the one measured.
const setupReps = 21

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	check    bool
	agree    bool
	clients  int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all five)")
	fs.Int64Var(&cfg.seed, "seed", 42, "seed of the generated inputs and schedules")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of each run's measured window, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.check, "check", false, "run only the correctness gate")
	fs.BoolVar(&cfg.agree, "agree", false, "run two sets of untraced runs and compare them under the metrics' own bounds")
	fs.IntVar(&cfg.clients, "clients", min(runtime.NumCPU(), 2), "load-generating clients of warm_serve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	// The generator runs in this process, on the cores the server
	// uses. More clients than cores would measure the scheduler.
	if cfg.clients < 1 || cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: want 1..%d (nproc)", cfg.clients, runtime.NumCPU())
	}
	serveClients = cfg.clients

	selected := workloads
	if cfg.workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == cfg.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", cfg.workload)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	switch {
	case cfg.check:
		return runCheck(selected, cfg.seed)
	case cfg.agree:
		return runAgree(selected, cfg)
	}

	report := &resultFile{Env: captureEnv(cfg.seed)}
	var firstErr error
	for _, w := range selected {
		r, err := runWorkload(w, cfg.seed, cfg.seconds, cfg.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report.Runs = append(report.Runs, r)
		r.print(os.Stdout)
		if !r.Correct && firstErr == nil {
			firstErr = fmt.Errorf("%s: %d of %d operations failed, %d check failures", w.name, r.Failed, r.Attempted, len(r.CheckFailures))
		}
	}
	if err := report.write(filepath.Join(outDir, "result.json")); err != nil {
		return err
	}
	if cfg.workload != "" {
		// The driver's protocol: one JSON object, last line of stdout.
		fmt.Println(report.Runs[0].driverLine())
	}
	return firstErr
}

// --- One run -------------------------------------------------------------------

// runResult is one workload's run, untraced or traced.
type runResult struct {
	Workload      string        `json:"workload"`
	Traced        bool          `json:"traced"`
	Seed          int64         `json:"seed"`
	Seconds       int           `json:"seconds"`
	WallS         float64       `json:"wall_s"`
	Fingerprint   string        `json:"fingerprint"`
	Correct       bool          `json:"correct"`
	Attempted     int           `json:"attempted"`
	Failed        int           `json:"failed"`
	ChecksPassed  int           `json:"checks_passed"`
	CheckFailures []string      `json:"check_failures"`
	Metrics       []metricValue `json:"metrics"`
}

func runWorkload(w workload, seed int64, seconds int, traced bool) (*runResult, error) {
	start := time.Now()
	r := &runResult{Workload: w.name, Traced: traced, Seed: seed, Seconds: seconds, CheckFailures: []string{}}

	reps := setupReps
	if traced {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer inst.close()
	r.Fingerprint = inst.fingerprint()

	c := &checker{}
	inst.check(c)
	r.ChecksPassed, r.CheckFailures = c.passed, append(r.CheckFailures, c.failures...)

	if traced {
		rec := newRecorder()
		values, failed := inst.trace(rec, float64(seconds)/20)
		spans := rec.snapshot()
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "op") {
				r.Attempted++
			}
		}
		r.Failed = failed
		for _, def := range perLayer {
			r.Metrics = append(r.Metrics, metricValue{Name: def.Name, Value: values[def.Name], Unit: def.Unit})
		}
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, seed, spans); err != nil {
			return nil, err
		}
	} else {
		m := inst.measure(time.Duration(seconds) * time.Second)
		r.Attempted, r.Failed = m.attempted()
		setupS, setupSummary := tail(setups, 0.5)
		r.Metrics = endToEndValues(m, setupS, setupSummary)
	}
	// Wrong answers found by the gate count as failed operations too.
	r.Failed += len(r.CheckFailures)
	r.Attempted += c.passed + len(r.CheckFailures)
	r.Correct = r.Failed == 0
	r.WallS = time.Since(start).Seconds()
	return r, nil
}

func (r *runResult) print(out *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "# %s (%s) seed=%d seconds=%d wall=%.1fs correct=%v attempted=%d failed=%d checks=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.WallS, r.Correct, r.Attempted, r.Failed, r.ChecksPassed)
	for _, f := range r.CheckFailures {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", f)
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("%s.%s %v %s", r.Workload, m.Name, m.Value, m.Unit)
		if s := m.Samples; s != nil {
			line += fmt.Sprintf("  # n=%d q1=%.4g median=%.4g q3=%.4g", s.N, s.Q1, s.Med, s.Q3)
			if s.Percentile != 0.5 {
				line += fmt.Sprintf(" read at p%.4g", s.Percentile*100)
			}
			if !s.Supported {
				line += " (fewer than 10 samples beyond)"
			}
		}
		if m.Fallback != "" {
			line += "  # no such operation here: reports " + m.Fallback
		}
		fmt.Fprintln(out, line)
	}
}

// driverLine renders the run the way the benchmark driver reads it.
func (r *runResult) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf value can fail here; say so instead of
		// printing half a line.
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err.Error())
	}
	return string(line)
}

// --- result.json -----------------------------------------------------------------

type envInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
	Started    string  `json:"started"`
}

func captureEnv(seed int64) envInfo {
	env := envInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		LoadAvg1:   -1,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if _, err := fmt.Sscanf(string(data), "%f", &env.LoadAvg1); err != nil {
			env.LoadAvg1 = -1
		}
	}
	return env
}

type resultFile struct {
	Env envInfo `json:"env"`
	// Claim is always null: the change that defines a benchmark claims
	// no gain, and this program never does.
	Claim *string      `json:"claim"`
	Runs  []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- -check ------------------------------------------------------------------------

func runCheck(selected []workload, seed int64) error {
	bad := 0
	for _, w := range selected {
		inst, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		c := &checker{}
		inst.check(c)
		inst.close()
		fmt.Printf("%s: %d checks passed, %d failed\n", w.name, c.passed, len(c.failures))
		for _, f := range c.failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		bad += len(c.failures)
	}
	if bad > 0 {
		return fmt.Errorf("%d correctness checks failed", bad)
	}
	return nil
}

// --- -agree ------------------------------------------------------------------------

// agreeRuns is how many runs make one set; their median is the set's
// value. A set's spread is the driver's: the quartile distance over the
// median, which for three runs is their whole range.
const agreeRuns = 3

// runAgree measures the same code twice and holds the two sets to the
// rule later changes are held to: a metric agrees when the second
// set's median is no worse than the first's by more than the metric's
// bound, and is unresolved when either set's own runs spread wider
// than that bound, because then the comparison cannot tell.
func runAgree(selected []workload, cfg config) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for set := range sets {
		for i := 0; i < agreeRuns; i++ {
			for _, w := range selected {
				r, err := runWorkload(w, cfg.seed+int64(i), cfg.seconds, false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s: run not correct: %d failed, checks %v", w.name, r.Failed, r.CheckFailures)
				}
				for _, m := range r.Metrics {
					k := key{w.name, m.Name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s done in %.1fs\n", set+1, i+1, w.name, r.WallS)
			}
		}
	}
	env := captureEnv(cfg.seed)
	fmt.Printf("# agree: 2 sets x %d runs (seeds %d..%d) x %d s, nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		agreeRuns, cfg.seed, cfg.seed+agreeRuns-1, cfg.seconds, env.Nproc, env.GOMAXPROCS, env.GoVersion, env.Commit)
	fmt.Printf("# %-18s %-26s %12s %12s %8s %8s %6s  verdict\n", "workload", "metric", "median 1", "median 2", "worse", "spread", "bound")
	disagree := 0
	var unresolved []string
	for _, w := range selected {
		for _, def := range endToEnd {
			k := key{w.name, def.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if def.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(a), spread(b))
			verdict := "agree"
			switch {
			case sp > def.Bound:
				verdict = "unresolved"
				unresolved = append(unresolved, w.name+"."+def.Name)
			case worse > def.Bound:
				verdict = "disagree"
				disagree++
			}
			fmt.Printf("  %-18s %-26s %12.5g %12.5g %+7.1f%% %7.1f%% %5.1f%%  %s\n",
				w.name, def.Name, ma, mb, 100*worse, 100*sp, 100*def.Bound, verdict)
		}
	}
	fmt.Printf("# %d disagree, %d unresolved (a set's own runs spread wider than the bound): %s\n",
		disagree, len(unresolved), strings.Join(unresolved, " "))
	if disagree > 0 {
		return fmt.Errorf("%d metrics disagree between two sets of runs of the same code", disagree)
	}
	return nil
}
