# Repo convention: `make check` is the pre-commit gate — formatting,
# vet, build, the full test suite, repolint (the repo's determinism &
# ownership contracts as static-analysis passes), and the sweep engine
# under the race detector. Tier-1 (the driver's gate) is build + test.

GO ?= go

.PHONY: check fmt vet build test lint sharing-report race fuzz serve-smoke bench-smoke bench bench-check benchfull experiments

check: fmt vet build test lint race serve-smoke fuzz bench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# repolint: the eight contract analyzers (detorder, novtime, singleuse,
# metafreeze, scratchown, vtflow, sharedmut, singlewriter) over the
# whole module, _test.go files included — the last three are
# interprocedural, propagating facts bottom-up over the import graph.
# The linter is deliberately stdlib-only — golang.org/x/tools
# cannot be fetched in the offline/hermetic builds this repo targets,
# so internal/lint/analysis mirrors the go/analysis surface instead of
# pinning x/tools in go.mod (see ARCHITECTURE.md).
lint:
	$(GO) run ./cmd/repolint ./...

# Regenerate the PDES sharing baseline (the sharedmut analyzer's
# inventory of package-level mutable state across the simulation
# surface). TestSharingReportFresh pins the committed file to the code,
# so rerun this after adding/removing/re-classifying a package-level
# variable.
sharing-report:
	$(GO) run ./cmd/repolint -sharing-report > PDES_SHARING.md

# The sweep engine is the only deliberately concurrent code in the
# repo; run it (and the core scratch plumbing it exercises) under the
# race detector. The sweep package's own cells are timing-only, so
# also race-run the experiments goldens, whose cells execute kernels
# functionally in parallel, and the scheduler package itself — its
# pooled buffers and assignment recycling are shared across sweep
# workers, so the policy parity suites run raced too. Since the
# dynamic-platform layer, platevent Schedules are shared read-only
# across grid cells (the churn golden and the corpus event grid race
# that sharing), so platevent itself races too, and the core package
# contributes its zero-event dynamic differential — the full core
# suite under -race is minutes, so the filter mirrors the
# ParallelGolden pattern. workload and stats ride along since the
# repolint PR: replay sources feed RunStream from sweep workers and
# sinks accumulate inside concurrently-executing cells, so both
# packages' suites run raced in full (each is seconds, not minutes).
# The serving layer joins since the daemon PR: admission waiters, the
# snapshot ticker, drain, and the grid-order emitter are all
# goroutine-heavy by design.
race:
	$(GO) test -race ./internal/sweep/... ./internal/sched/... ./internal/platevent/... ./internal/workload/... ./internal/stats/... ./internal/serve/...
	$(GO) test -race -run ParallelGolden ./internal/experiments
	$(GO) test -race -run Dynamic ./internal/core

# serve-smoke is the daemon's crash-resume acceptance, run against the
# real binary: SIGKILL mid-sweep, restart over the half-written
# journal, assert zero journaled cells recomputed and byte-identical
# merged output, plus a clean SIGTERM drain (exit 0). The in-process
# halves of the same contracts live in internal/serve's tests; this
# target proves them across a process boundary.
serve-smoke:
	bash scripts/serve_smoke.sh

# Fuzz smoke: each native fuzz target gets a short engine run on top
# of the committed seed corpus (which plain `go test` already replays).
# One target per invocation — go's fuzz engine requires it. 10s each
# keeps the gate fast while still mutating past the seeds.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run NONE -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run NONE -fuzz '^FuzzConvert$$' -fuzztime $(FUZZTIME) ./internal/outliner
	$(GO) test -run NONE -fuzz '^FuzzProgramLowering$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run NONE -fuzz '^FuzzEventSchedule$$' -fuzztime $(FUZZTIME) ./internal/core

# Bench smoke: every benchmark in the scheduler and core packages runs
# once, so a benchmark that panics or fails its own checks (the
# saturated-EFT bench fails if a call allocates) breaks the gate
# instead of only compiling. No timing is recorded or compared.
bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x ./internal/sched ./internal/core

# `make bench` records the perf trajectory: the emulator throughput
# benches (tasks/sec, allocs/op — including the streaming Online-sink
# path) and the sweep scaling benches, parsed into BENCH_<PR>.json by
# cmd/benchreport. Bump BENCH_N when a PR moves the numbers. The
# allocation regression gate lives in `test`: TestRunSteadyStateAllocs
# plus its sink/stream companions (constant allocs with an Online sink).
# BENCH_TRIALS > 1 repeats the suite as separate processes (benchreport
# runs each trial itself); it folds the repeated lines into mean/stdev records,
# and bench-check then treats over-threshold drops whose noise
# intervals overlap as warnings rather than failures. Each trial
# process additionally contributes a trial_resources record — wall /
# user / system time, peak RSS, and summed stop-the-world GC pauses
# under GODEBUG=gctrace=1 — so BENCH files carry memory-pressure
# context next to the throughput numbers.
BENCH_N ?= 10
BENCH_TRIALS ?= 3

# The recorded regex includes the scheduler path ablation since PR 5:
# BENCH_5.json pins the indexed-vs-slice gap on the big.LITTLE and
# 512-PE heterogeneous pools alongside the throughput headlines.
BENCH_REGEX = EmulatorThroughput|SweepWorkers|SchedulerPathAblation

# The report lands in a temp file first so neither a failed benchmark
# trial nor a parse error can truncate the recorded
# BENCH_$(BENCH_N).json (`>` truncates before the command runs).
# benchreport runs the go test child itself — one process per
# trial — and -raw preserves the combined raw benchmark text alongside
# the JSON for debugging a failed run.
bench:
	$(GO) run ./cmd/benchreport -trials $(BENCH_TRIALS) \
		-raw BENCH_$(BENCH_N).out \
		$(GO) test -run NONE -bench '$(BENCH_REGEX)' \
		-benchmem -benchtime 10x . > BENCH_$(BENCH_N).json.tmp
	@cat BENCH_$(BENCH_N).out
	@mv BENCH_$(BENCH_N).json.tmp BENCH_$(BENCH_N).json
	@rm BENCH_$(BENCH_N).out

# `make bench-check` is the perf-regression gate: it reruns the bench
# suite and diffs it against the last recorded BENCH_$(BENCH_PREV).json
# via benchreport -prev, failing on a >10% tasks/sec drop — the fresh
# numbers gate against the recorded BENCH_5.json trajectory point
# (BENCH_10 re-recorded the same suite with trial_resources). The
# fresh measurement is discarded (only the delta table on stderr
# survives); run `make bench` to record a new trajectory point.
BENCH_PREV ?= 5
bench-check:
	@status=0; $(GO) run ./cmd/benchreport -trials $(BENCH_TRIALS) \
		-prev BENCH_$(BENCH_PREV).json \
		$(GO) test -run NONE -bench '$(BENCH_REGEX)' \
		-benchmem -benchtime 10x . > /dev/null || status=$$?; \
	exit $$status

# The full benchmark harness (every table/figure of the paper) at one
# iteration each.
benchfull:
	$(GO) test -bench . -benchtime 1x

experiments:
	$(GO) run ./cmd/experiments -exp all
