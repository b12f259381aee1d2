// Command hummerd is the HumMer query service: a long-lived HTTP/JSON
// server over one shared DB. Sources are registered at startup from
// flags or at runtime through the API; FUSE BY queries are served
// concurrently, with the expensive pipeline artifacts (DUMAS matches,
// duplicate detections, parsed plans) shared across queries through
// the versioned artifact cache.
//
// Usage:
//
//	hummerd -addr :8080 -csv students1=ee.csv -csv students2=cs.csv
//
// Flags:
//
//	-addr HOST:PORT      listen address (default :8080)
//	-csv alias=path      register a CSV source (repeatable)
//	-json alias=path     register a JSON source (repeatable)
//	-xml alias=path:tag  register an XML source (repeatable)
//	-cache N             artifact-cache capacity in entries (0 = default)
//	-parallelism N       unified parallelism: concurrent batch
//	                     statements and the default for -parallel /
//	                     -match-parallel
//	                     (0 = GOMAXPROCS; 1 = fully sequential;
//	                     results are byte-identical at every setting)
//	-parallel N          duplicate-detection workers (0 = inherit
//	                     -parallelism)
//	-match-parallel N    schema-matching workers (0 = inherit
//	                     -parallelism)
//	-query-timeout D     per-query execution bound (default 60s; 0 = none);
//	                     an elapsed timeout cancels the pipeline
//	                     mid-flight and returns 504
//	-max-inflight N      concurrently executing queries admitted
//	                     (0 = unbounded); over-limit requests get an
//	                     immediate 429 instead of queueing
//	-admission-queue N   with -max-inflight, let up to N over-limit
//	                     requests wait for a slot instead of 429ing
//	-admission-wait D    how long a queued request may wait before
//	                     503 (default 1s; needs -admission-queue)
//	-allow-path-sources  let API clients register server-local files by
//	                     path (off by default: file-disclosure risk)
//	-log-level LEVEL     minimum log level: debug, info, warn, error
//	                     (default info)
//	-log-format FORMAT   log output format: text or json (default text)
//	-slow-query D        log the full span tree of any query slower
//	                     than D (0 = disabled)
//	-trace-ring N        per-query traces kept for GET /v1/trace
//	                     (default 128; 0 disables tracing)
//	-debug-addr ADDR     serve net/http/pprof on a second listener
//	                     (off by default; never expose publicly)
//
// Rejection responses (429, 503, 504) carry a Retry-After header.
//
// Setting HUMMER_FAULTS arms the deterministic fault-injection
// harness (see internal/faultinject) — test/chaos builds only; the
// server logs a loud warning when it is armed.
//
// Every query runs under its request's context: a client that hangs
// up cancels its own pipeline mid-flight (logged as 499), so slow
// matches and detections never hold worker pools for clients that are
// gone. Large results stream as NDJSON via POST /v1/query/stream;
// POST /v1/batch executes several statements per request, each under
// its own deadline. Prometheus metrics are served on /metrics.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get up to 10 seconds to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hummer"
	"hummer/internal/faultinject"
	"hummer/internal/flagspec"
	"hummer/internal/obs"
	"hummer/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hummerd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hummerd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	var csvs, jsons, xmls flagspec.Multi
	fs.Var(&csvs, "csv", "alias=path of a CSV source (repeatable)")
	fs.Var(&jsons, "json", "alias=path of a JSON source (repeatable)")
	fs.Var(&xmls, "xml", "alias=path:recordTag of an XML source (repeatable)")
	cacheCap := fs.Int("cache", 0, "artifact-cache capacity in entries (0 = default)")
	parallelism := fs.Int("parallelism", 0,
		"unified parallelism: concurrent batch statements and the default for -parallel/-match-parallel (0 = GOMAXPROCS)")
	parallel := fs.Int("parallel", 0, "duplicate-detection workers (0 = inherit -parallelism)")
	matchParallel := fs.Int("match-parallel", 0, "schema-matching workers (0 = inherit -parallelism)")
	queryTimeout := fs.Duration("query-timeout", 60*time.Second,
		"per-query execution bound; an elapsed timeout cancels the pipeline mid-flight (504). 0 disables")
	maxInflight := fs.Int("max-inflight", 0,
		"concurrently executing queries admitted; over-limit requests get an immediate 429 (0 = unbounded)")
	admissionQueue := fs.Int("admission-queue", 0,
		"with -max-inflight: over-limit requests that may wait for a slot instead of 429ing (0 = reject immediately)")
	admissionWait := fs.Duration("admission-wait", time.Second,
		"how long a queued request may wait for a slot before 503 (needs -admission-queue)")
	allowPaths := fs.Bool("allow-path-sources", false,
		"let API clients register server-local files by path (file-disclosure risk; keep off unless clients are trusted)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	slowQuery := fs.Duration("slow-query", 0,
		"log the full span tree of any query slower than this (0 = disabled)")
	traceRing := fs.Int("trace-ring", server.DefaultTraceRing,
		"per-query traces kept for GET /v1/trace (0 disables tracing)")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof on this second listener (empty = off; never expose publicly)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	if armed, err := faultinject.ArmFromEnv(os.Getenv(faultinject.EnvVar)); err != nil {
		return fmt.Errorf("%s: %w", faultinject.EnvVar, err)
	} else if armed {
		logger.Warn("fault injection ARMED — queries will fail on purpose; never set this in production",
			"env", faultinject.EnvVar, "spec", os.Getenv(faultinject.EnvVar))
	}

	db := hummer.New(hummer.WithCacheCapacity(*cacheCap))
	db.SetParallelism(*parallelism)
	db.SetDetectConfig(hummer.DetectionConfig{Parallelism: *parallel})
	db.SetMatchConfig(hummer.MatchConfig{Parallelism: *matchParallel})
	for _, spec := range csvs {
		alias, path, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-csv %q: %w", spec, err)
		}
		if err := db.RegisterCSV(alias, path); err != nil {
			return err
		}
	}
	for _, spec := range jsons {
		alias, path, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-json %q: %w", spec, err)
		}
		if err := db.RegisterJSON(alias, path); err != nil {
			return err
		}
	}
	for _, spec := range xmls {
		alias, rest, err := flagspec.Split(spec, "=")
		if err != nil {
			return fmt.Errorf("-xml %q: %w", spec, err)
		}
		path, tag, err := flagspec.SplitPathTag(rest)
		if err != nil {
			return fmt.Errorf("-xml %q: want alias=path:recordTag", spec)
		}
		if err := db.RegisterXML(alias, path, tag); err != nil {
			return err
		}
	}

	srvOpts := []server.Option{
		server.WithQueryTimeout(*queryTimeout),
		server.WithMaxInflight(*maxInflight),
		server.WithLogger(logger),
		server.WithTraceRing(*traceRing),
	}
	if *admissionQueue > 0 {
		srvOpts = append(srvOpts, server.WithAdmissionWait(*admissionQueue, *admissionWait))
	}
	if *allowPaths {
		srvOpts = append(srvOpts, server.AllowPathSources())
	}
	if *slowQuery > 0 {
		srvOpts = append(srvOpts, server.WithSlowQueryLog(*slowQuery))
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(db, srvOpts...).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		// pprof on its own listener and mux: the profiling surface
		// stays off the query port, so binding it to localhost while
		// the API faces the network is a flag away.
		dbgMux := http.NewServeMux()
		dbgMux.HandleFunc("/debug/pprof/", pprof.Index)
		dbgMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbgMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbgMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbgMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dbgMux, ReadHeaderTimeout: 10 * time.Second}
		defer dbgSrv.Close()
		go func() {
			logger.Info("pprof debug server listening", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof debug server failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr, "sources", len(db.Sources()))
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := db.Stats()
	logger.Info("served",
		"queries", st.Queries,
		"fusion_queries", st.FuseQueries,
		"query_errors", st.QueryErrors,
		"cache_hit_rate", st.Cache.HitRate())
	return <-errCh
}
