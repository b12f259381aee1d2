// Command hummer-loadgen drives a production-shaped traffic mix
// against a live hummerd and reports per-class latency SLO numbers:
// p50/p95/p99 plus time-to-first-row for the streaming classes,
// status and overload counts (429/499/503/504 with their Retry-After
// hints), and throughput.
//
// The request schedule is fully determined by -seed: two runs with
// the same flags issue the identical sequence of requests (the
// schedule fingerprint printed with the results certifies it), so the
// harness produces comparable measurements across code versions.
//
// Usage:
//
//	hummer-loadgen -url http://127.0.0.1:8080 -setup       # register lg_* fixtures, then run
//	hummer-loadgen -requests 500 -concurrency 16           # closed loop
//	hummer-loadgen -mode open -rate 80 -duration 10s       # open loop, Poisson arrivals
//	hummer-loadgen -mode open -ramp 20x5s,100x10s          # ramp profile
//	hummer-loadgen -mix warm_fuse:8,select_stream:2        # reweight the class mix
//	hummer-loadgen -print-schedule                         # dump the schedule, no traffic
//
// The workload classes are the default loadgen mix (warm/cold fusion,
// materialized/streamed scans, streamed fusion, batches) over the
// lg_s1/lg_s2/lg_big fixtures; -setup registers those on the target
// (idempotent, replace semantics).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"hummer/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the target hummerd")
	seed := flag.Int64("seed", 2005, "schedule seed (same seed => identical request schedule)")
	mode := flag.String("mode", "closed", "arrival discipline: closed (fixed workers) or open (scheduled arrivals)")
	requests := flag.Int("requests", 200, "closed loop: total requests")
	concurrency := flag.Int("concurrency", 8, "closed loop: worker count")
	arrival := flag.String("arrival", "poisson", "open loop: interarrival process (poisson or constant)")
	rate := flag.Float64("rate", 50, "open loop: offered load in requests/second (single phase)")
	duration := flag.Duration("duration", 10*time.Second, "open loop: single-phase duration")
	ramp := flag.String("ramp", "", "open loop: multi-phase profile RATExDUR[,RATExDUR...] (e.g. 20x5s,100x10s); overrides -rate/-duration")
	mix := flag.String("mix", "", "class mix NAME:WEIGHT[,NAME:WEIGHT...] over the default classes; omitted classes keep weight 0")
	setup := flag.Bool("setup", false, "register the lg_s1/lg_s2/lg_big fixtures on the target before running")
	entities := flag.Int("entities", 60, "fixture size for -setup (person entities; lg_big holds 2x rows)")
	printSchedule := flag.Bool("print-schedule", false, "print the seeded schedule and exit without sending traffic")
	flag.Parse()

	cfg := loadgen.Config{
		BaseURL:     strings.TrimRight(*url, "/"),
		Seed:        *seed,
		Classes:     loadgen.DefaultClasses(),
		Concurrency: *concurrency,
		Requests:    *requests,
		Arrival:     loadgen.Arrival(*arrival),
	}
	switch *mode {
	case "closed":
		cfg.Mode = loadgen.ModeClosed
	case "open":
		cfg.Mode = loadgen.ModeOpen
		phases, err := parseRamp(*ramp, *rate, *duration)
		if err != nil {
			fatal("%v", err)
		}
		cfg.Phases = phases
	default:
		fatal("unknown -mode %q (want closed or open)", *mode)
	}
	if *mix != "" {
		classes, err := applyMix(cfg.Classes, *mix)
		if err != nil {
			fatal("%v", err)
		}
		cfg.Classes = classes
	}

	schedule, err := loadgen.Schedule(cfg)
	if err != nil {
		fatal("%v", err)
	}
	if *printSchedule {
		fmt.Printf("# seed %d, %d requests, fingerprint %s\n",
			*seed, len(schedule), loadgen.Fingerprint(schedule))
		for _, r := range schedule {
			fmt.Printf("%6d  %-14s  +%s\n", r.Index, cfg.Classes[r.Class].Name, r.At)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := &http.Client{}
	if *setup {
		if err := loadgen.Setup(ctx, client, cfg.BaseURL, *seed, *entities); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "hummer-loadgen: registered lg_s1/lg_s2/lg_big (%d entities) on %s\n",
			*entities, cfg.BaseURL)
	}
	cfg.Client = client

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal("%v", err)
	}
	printResult(res, cfg.BaseURL)
}

// printResult renders a run as one row per workload class — request
// and success counts, latency percentiles, and time to first row for
// the streaming classes — followed by a note with the schedule
// fingerprint, overall throughput and status counts.
func printResult(res *loadgen.Result, target string) {
	fmt.Printf("loadgen traffic mix (%s, %s-loop, %d requests)\n",
		target, res.Mode, res.ScheduleRequests)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tendpoint\trequests\tok\tp50\tp95\tp99\tmax\tttfr p50")
	for _, cr := range res.Classes {
		ttfr := "-"
		if cr.TTFR != nil {
			ttfr = fmtSeconds(cr.TTFR.P50Seconds)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			cr.Class, cr.Endpoint, cr.Requests, cr.Latency.Count,
			fmtSeconds(cr.Latency.P50Seconds), fmtSeconds(cr.Latency.P95Seconds),
			fmtSeconds(cr.Latency.P99Seconds), fmtSeconds(cr.Latency.MaxSeconds),
			ttfr)
	}
	if err := tw.Flush(); err != nil {
		fatal("writing results: %v", err)
	}
	fmt.Printf("note: schedule seed %d fingerprint %s (same seed => identical request schedule); cold classes purge the artifact cache before each request (purge excluded from the latency); overall %.1f req/s, statuses %v\n",
		res.Seed, res.ScheduleFingerprint, res.ThroughputRPS, res.Statuses)
}

// fmtSeconds renders a duration-in-seconds at microsecond-ish
// precision without trailing noise.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// parseRamp builds the open-loop phase list: either the multi-phase
// -ramp spec ("20x5s,100x10s") or the single -rate/-duration phase.
func parseRamp(spec string, rate float64, duration time.Duration) ([]loadgen.Phase, error) {
	if spec == "" {
		return []loadgen.Phase{{Rate: rate, Duration: duration}}, nil
	}
	var phases []loadgen.Phase
	for _, part := range strings.Split(spec, ",") {
		r, d, ok := strings.Cut(strings.TrimSpace(part), "x")
		if !ok {
			return nil, fmt.Errorf("bad -ramp phase %q (want RATExDURATION, e.g. 50x10s)", part)
		}
		rf, err := strconv.ParseFloat(r, 64)
		if err != nil || rf <= 0 {
			return nil, fmt.Errorf("bad -ramp rate in %q", part)
		}
		dd, err := time.ParseDuration(d)
		if err != nil || dd <= 0 {
			return nil, fmt.Errorf("bad -ramp duration in %q", part)
		}
		phases = append(phases, loadgen.Phase{Rate: rf, Duration: dd})
	}
	return phases, nil
}

// applyMix reweights the default classes from a NAME:WEIGHT spec.
// Classes the spec does not mention get weight 0 (dropped), so the
// spec IS the mix.
func applyMix(classes []loadgen.Class, spec string) ([]loadgen.Class, error) {
	known := map[string]int{}
	out := make([]loadgen.Class, len(classes))
	for i, c := range classes {
		c.Weight = 0
		out[i] = c
		known[c.Name] = i
	}
	for _, part := range strings.Split(spec, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want NAME:WEIGHT)", part)
		}
		i, found := known[name]
		if !found {
			names := make([]string, 0, len(classes))
			for _, c := range classes {
				names = append(names, c.Name)
			}
			return nil, fmt.Errorf("unknown class %q in -mix (known: %s)", name, strings.Join(names, ", "))
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -mix weight in %q", part)
		}
		out[i].Weight = n
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hummer-loadgen: "+format+"\n", args...)
	os.Exit(1)
}
