# HumMer build / verify entry points.
#
#   make check   — everything CI needs: formatting, vet, the hummer
#                  contract linter, build, tests, the race detector on
#                  the parallel and serving packages, the chaos
#                  fault-storm, the coverage floor, the loadgen smoke,
#                  and bench-check.
#   make bench-check — the benchmark harness's vet + tests and its
#                  correctness gate (bash benchmark/run.sh -check).
#   make bench-agree — two sets of benchmark runs of the same code,
#                  compared under BENCHMARK.json's bounds (about 10
#                  min, so not part of check).
#   make lint    — the repo's own static-analysis suite
#                  (cmd/hummer-lint): panic containment on every
#                  goroutine, determinism bans in result-producing
#                  packages, ctx discipline, typed atomics only, and
#                  error-wrapping hygiene.
#   make chaos   — the fault-injection chaos suite under -race: a
#                  server hammered by concurrent mixed queries while a
#                  fixed-seed fault schedule fires panics, errors and
#                  delays at every layer.
#   make serve   — launch hummerd on the quickstart example sources.
#   make bench   — the Go benchmarks (go test -bench), for profiling;
#                  performance claims come from BENCHMARK.json +
#                  benchmark/ only.
#   make loadtest — fixed-seed closed-loop loadgen smoke + burst
#                  admission tests against an in-process hummerd.
#   make profile — start hummerd with -debug-addr, drive it with the
#                  loadgen, and capture a 10s CPU profile to
#                  profiles/cpu.pprof.
#   make profile-cold — CPU-profile the cold FUSE BY path in-process
#                  (no server, no cache) to profiles/cold.pprof.
#   make fuzz   — run each Fuzz target for FUZZTIME (default 10s):
#                  the SQL parser, the three strsim kernels
#                  (banded Levenshtein, Jaro-Winkler, tokenizer),
#                  duplicate detection against its row-level oracle,
#                  the qcache fault schedule and the response cell
#                  encoder against encoding/json. Not part of check.
#   make fmt    — rewrite files with gofmt.

GO ?= go

# Packages with sharded worker pools or concurrent query serving:
# always exercised under -race. The root package carries the
# concurrent-DB.Query byte-identity test; plan and core carry the
# ctx-threaded pipeline (cancellation joins worker goroutines, the
# fused-result tier shares results across queries), so ctx-misuse
# regressions surface here; obs holds the lock-free histograms that
# hummerd's concurrent handlers observe into while /metrics scrapes
# them.
RACE_PKGS = . ./internal/parshard ./internal/dupdetect ./internal/dumas \
	./internal/qcache ./internal/server ./internal/plan ./internal/core \
	./internal/obs

# Packages held to the coverage floor (matching + detection core and
# the sharding and candidate-order helpers they share, the planner,
# the relational engine and the relations it passes around, the HTTP
# server and its metrics).
COVER_PKGS = ./internal/dumas ./internal/dupdetect ./internal/parshard ./internal/assign \
	./internal/strsim ./internal/plan ./internal/engine ./internal/relation ./internal/server ./internal/obs
COVER_FLOOR = 70

.PHONY: check fmtcheck fmt vet lint build test race chaos cover bench bench-check bench-agree serve loadtest profile profile-cold fuzz

check: fmtcheck vet lint build test race chaos cover loadtest bench-check

fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# The repo's contracts as code: five analyzers (containment,
# determinism, ctx, atomicmix, errwrap) over the whole module. Exit 1
# on findings; suppression needs //lint:ignore hummer/<rule> <reason>.
lint:
	$(GO) run ./cmd/hummer-lint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel and serving packages must be clean under the race
# detector: the determinism guarantee is worthless if workers race,
# and hummerd serves queries concurrently.
race:
	$(GO) test -race $(RACE_PKGS)

# Fault containment under fire: the chaos storm (fixed fault seed
# baked into the test) plus every injection/containment test, all
# under the race detector. Proves panics anywhere become typed
# errors, the cache is never poisoned, goroutines settle, and
# post-chaos results stay byte-identical.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Panic|Fault|Inject' \
		./internal/faultinject ./internal/fault ./internal/parshard \
		./internal/qcache ./internal/plan ./internal/server

# Launch the query service on the quickstart example sources; stop it
# with Ctrl-C (hummerd shuts down gracefully). See README.md for a
# curl-able tour of the API.
serve:
	$(GO) run ./cmd/hummerd -addr :8080 \
		-csv EE_Student=examples/serve/ee_students.csv \
		-csv CS_Students=examples/serve/cs_students.csv

# Coverage floor: each core matching/detection package must keep at
# least $(COVER_FLOOR)% statement coverage.
cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" = "1" ]; then \
			echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		else \
			echo "coverage $$pkg: $$pct% BELOW FLOOR $(COVER_FLOOR)%"; fail=1; \
		fi; \
	done; \
	exit $$fail

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The benchmark (BENCHMARK.json + benchmark/, a nested module that
# `build`, `test` and `lint` never see) must still compile against the
# program's frozen symbols, pass its harness tests, and reproduce every
# correctness digest — a few seconds, so a break fails here instead of
# in the benchmark driver.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -check

# Whether the benchmark can tell this machine's runs apart: two sets of
# runs of the same code, each workload's metrics held to its bound.
# Exits non-zero on any disagreement.
bench-agree:
	bash benchmark/run.sh -agree

# CPU-profile a loaded server: build both binaries, start hummerd on
# the example sources with the pprof listener up, drive it with the
# loadgen mix in the background, and capture a 10-second CPU profile.
# Inspect with: go tool pprof profiles/cpu.pprof
profile:
	@mkdir -p profiles
	$(GO) build -o profiles/hummerd ./cmd/hummerd
	$(GO) build -o profiles/hummer-loadgen ./cmd/hummer-loadgen
	@./profiles/hummerd -addr 127.0.0.1:18080 -debug-addr 127.0.0.1:18081 \
		-slow-query 250ms \
		-csv EE_Student=examples/serve/ee_students.csv \
		-csv CS_Students=examples/serve/cs_students.csv & \
	srv=$$!; \
	trap 'kill $$srv 2>/dev/null' EXIT; \
	sleep 1; \
	./profiles/hummer-loadgen -url http://127.0.0.1:18080 -setup \
		-mode open -rate 30 -duration 12s & \
	gen=$$!; \
	curl -fsS -o profiles/cpu.pprof \
		'http://127.0.0.1:18081/debug/pprof/profile?seconds=10' \
		|| { echo "profile capture failed (is something else on 18080/18081?)"; kill $$gen 2>/dev/null; exit 1; }; \
	wait $$gen; \
	echo "wrote profiles/cpu.pprof"

# CPU-profile the cold FUSE BY path without a server: 200 uncached
# runs of BenchmarkQueryEndToEnd/cold (2 × 500 rows, the statement the
# benchmark's cold_fuse workload issues). Inspect with:
# go tool pprof profiles/cold.pprof
profile-cold:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench 'QueryEndToEnd/cold' -benchtime 200x -cpuprofile profiles/cold.pprof .

# Every native fuzz target as package:target. go test -fuzz takes one
# target per run, so they run in turn, FUZZTIME each.
FUZZ_TARGETS = ./internal/sql:FuzzParse \
	./internal/strsim:FuzzLevenshteinSimBounded \
	./internal/strsim:FuzzScratchJaroWinkler \
	./internal/strsim:FuzzTokenize \
	./internal/dupdetect:FuzzDetectMatchesOracle \
	./internal/qcache:FuzzDoContextFaultSchedule \
	./internal/server:FuzzAppendCell
FUZZTIME ?= 10s

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# Production-traffic smoke: the loadgen harness drives its fixed-seed
# closed-loop mix (and a deliberate overload burst) at an in-process
# hummerd — non-zero throughput, per-class percentiles, Retry-After on
# every overload response, and the /metrics histograms must all hold.
loadtest:
	$(GO) test -count=1 -run 'TestLoadgenSmoke|TestBurstAdmission' ./internal/loadgen
