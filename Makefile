# Developer entry points. `make check` is what CI runs; it must pass
# before any change lands.

GO ?= go

# The serve-path benchmark set shared by bench-run/bench-snapshot/bench-gate
# and profile: everything the benchmark-regression gate watches. Fixed
# -benchtime keeps allocs/op and B/op reproducible across machines.
BENCH_SET  = ^(BenchmarkServeInfer|BenchmarkFeaturizeColumn|BenchmarkTreePredict)$$
BENCH_TIME = 100x

.PHONY: build test race vet shvet shvet-strict shvet-fix shvet-fix-clean \
	check bench smoke smoke-fleet profile chaos soak bench-run \
	bench-snapshot bench-gate bench-gate-trace fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The forest trains on a goroutine pool; every change runs under the race
# detector so scheduling hazards surface before they corrupt results.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Repo-specific determinism & correctness analyzers (internal/analysis).
# Exits non-zero on any unsuppressed finding; see README "Static analysis
# & determinism policy" for the suppression directive.
shvet:
	$(GO) run ./cmd/shvet ./...

# Strict machine-readable gate: findings as stable JSON, diffed against
# the committed (empty) baseline so only brand-new findings fail. The
# report lands in shvet-findings.json (gitignored; CI uploads it as an
# artifact).
shvet-strict:
	$(GO) run ./cmd/shvet -json -baseline shvet.baseline.json ./... > shvet-findings.json

# Apply every suggested fix in place (cancel-leak, body-close,
# timer-stop); suppressed findings are refused, overlapping fixes are
# skipped, and every rewritten file is gofmt-formatted.
shvet-fix:
	$(GO) run ./cmd/shvet -fix ./...

# Autofix cleanliness gate: on a committed tree, -fix -dry-run must
# print no diffs and exit 0 — every fixable finding has either been
# applied (run `make shvet-fix`) or suppressed with a reason.
shvet-fix-clean:
	$(GO) run ./cmd/shvet -fix -dry-run ./...

check: build vet shvet shvet-strict shvet-fix-clean test race

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# Differential fuzzing: each native fuzz target runs for FUZZ_TIME against
# its reference — the multi-pass Compute kept in stats' tests, plain
# strconv.ParseFloat, the unscreened time.Parse layout loop, and the
# lower-case-and-look-up missing check. Seed corpora live under each
# package's testdata/fuzz/; a failing input is written there too.
FUZZ_TIME ?= 10s
fuzz:
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzCompute$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzParseFloat$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzIsDate$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/data -run '^$$' -fuzz '^FuzzIsMissing$$' -fuzztime $(FUZZ_TIME)

# Run the gated serve-path benchmark set, teeing raw output into
# bench-latest.txt (gitignored; CI uploads it as an artifact).
bench-run:
	$(GO) test -bench '$(BENCH_SET)' -benchmem -benchtime=$(BENCH_TIME) -run '^$$' . | tee bench-latest.txt

# Record the current benchmark numbers as a labeled snapshot in the
# committed baseline, e.g.: make bench-snapshot LABEL=pr7-after
LABEL ?= local
bench-snapshot: bench-run
	$(GO) run ./cmd/benchdiff -update BENCH_serve.json -label '$(LABEL)' -input bench-latest.txt

# The benchmark-regression gate CI runs: compare against the newest
# committed snapshot. allocs/op and B/op are gated at 10%; ns/op is
# reported but not gated (it is machine-dependent).
bench-gate: bench-run
	$(GO) run ./cmd/benchdiff -baseline BENCH_serve.json -tolerance 10% -input bench-latest.txt

# Tracing-overhead gate: with tracing disabled (no span in the context,
# as in the InferBatch benchmarks), the per-request instrumentation added
# for distributed tracing must cost zero additional allocs/op on the
# serve hot path. Gated at 0% against the committed baseline; the http
# sub-benchmark (tracing on) is deliberately outside -only.
bench-gate-trace:
	$(GO) test -bench 'BenchmarkServeInfer/(workers|cached)' -benchmem -benchtime=$(BENCH_TIME) -run '^$$' . | tee bench-trace.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_serve.json -tolerance 0% -metrics allocs \
		-only 'BenchmarkServeInfer/(workers|cached)' -input bench-trace.txt

# CPU and heap profiles of the serving hot path: runs the same benchmark
# set the regression gate watches, with the profiler on, writing into
# ./profiles/ (gitignored). Inspect with `go tool pprof profiles/cpu.out`
# (or mem.out); for a live process use `sortinghatd -pprof` and go tool
# pprof's HTTP mode instead. The test binary lands in profiles/ too, so
# pprof can resolve symbols without rebuilding.
profile:
	mkdir -p profiles
	$(GO) test -bench '$(BENCH_SET)' -benchmem -run '^$$' \
		-cpuprofile=profiles/cpu.out -memprofile=profiles/mem.out \
		-o profiles/bench.test .

# Chaos suite: the resilience layer (breaker, gate, retry budget, AIMD
# limiter, backoff, fault injector, rule fallback) plus the serve- and
# gateway-level fault drills — replica kills, brownouts, retry storms —
# under the race detector; panic recovery and load shedding are only
# trustworthy race-clean.
chaos:
	$(GO) test -race ./internal/resilience/... ./internal/serve ./internal/gateway

# Overload soak: a live three-replica fleet with injected featurize
# latency, concurrent clients, and a mid-run replica kill, for
# SOAK_DURATION (default 15s in the test). Every answer must be a
# complete ordered 200 or an accounted overload status (429/503/504).
SOAK_DURATION ?= 20s
soak:
	SOAK=1 SOAK_DURATION=$(SOAK_DURATION) $(GO) test -race -run TestFleetSoak -count=1 -timeout 180s -v ./internal/gateway

# End-to-end serving smoke: train a small model, boot sortinghatd, probe
# /healthz and /v1/infer (twice, to exercise the cache), check /metrics,
# then drill degraded mode (-fault-spec) and a hot model reload
# (POST /admin/reload). CI runs this as its own job. Phases, host, and
# port are selectable: see the SMOKE_* variables in scripts/smoke.sh.
smoke:
	sh ./scripts/smoke.sh

# Fleet smoke: boot 2 sortinghatd replicas plus a sortinghatgw in front,
# shard a batch across the fleet, and assert the replicas' prediction
# caches hold disjoint shards of the column space (every distinct column
# cached on exactly one replica; a repeat batch through the gateway is
# all cache hits). CI runs this as the smoke-fleet job.
smoke-fleet:
	SMOKE_PHASES=fleet sh ./scripts/smoke.sh
