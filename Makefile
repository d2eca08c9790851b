GO ?= go

# Pinned third-party tool versions. Install reproducibly with
# `make tools`; never ad-hoc @latest. The custom cbwslint suite needs
# no install: it lives in this module (cmd/cbwslint) and is stdlib-only.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test vet fmt-check race bench obs-smoke service-smoke check \
	fuzz-smoke golden golden-check bench-gate bench-ab bench-smoke corpus-smoke cluster-smoke streaming-smoke \
	lint lint-custom compat-manifest staticcheck govulncheck tools

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The harness has real concurrency (parallel matrix fill, single-flight
# memoization), the sim probes and the check models run under it, and
# the service stacks its slot scheduler and HTTP handlers on top, so
# all of them get a race-detector pass — the same packages as CI's
# race leg.
race:
	$(GO) test -race ./internal/sim/... ./internal/harness/... ./internal/check/... ./internal/service/... ./internal/cluster/...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# End-to-end observability smoke: simulate 200k instructions with a run
# record attached, then re-validate the record against the schema.
obs-smoke:
	$(GO) build -o /tmp/cbwsim-smoke ./cmd/cbwsim
	/tmp/cbwsim-smoke -workload stencil-default -prefetcher cbws+sms \
		-n 200000 -warmup 50000 -obs /tmp/cbwsim-smoke-run.json -sample-interval 20000
	/tmp/cbwsim-smoke -validate-record /tmp/cbwsim-smoke-run.json

# End-to-end service smoke: start cbwsd on an ephemeral port, sweep a
# small matrix with cbwsctl against golden/seed.json, replay it as 100%
# cache hits, and SIGTERM-drain cleanly.
service-smoke:
	./scripts/service_smoke.sh

# End-to-end cluster smoke: 3 peered cbwsd workers, a sharded sweep
# byte-identical to golden/seed.json, peer-fetch instead of
# re-simulation, a 100% cache-hit cbwsload hot replay, SIGKILL
# failover, and clean drains.
cluster-smoke:
	./scripts/cluster_smoke.sh

# End-to-end streaming smoke: one cbwsd, two tenants. Over-quota opens
# must be rejected 429 + Retry-After without touching the in-quota
# tenant, a streamed full-budget trace must land byte-identical under
# the closed-job content address, and a SIGTERM drain must finalize a
# complete open stream and cancel a half-fed one.
streaming-smoke:
	./scripts/streaming_smoke.sh

# End-to-end corpus smoke: pack two kernels into CBWC corpora (twice,
# requiring identical bytes), convert a CBWT capture and require the
# same bytes again, then replay the golden matrix from the corpus
# against golden/seed.json.
corpus-smoke:
	./scripts/corpus_smoke.sh

# Each differential fuzz target gets a short coverage-guided run on top
# of its seed corpus (CI uses 30s per target; override with FUZZTIME).
# Every target's minimization is capped at 5s per new input: left
# unbounded, it spends nearly the whole run minimizing the first.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzCacheVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzCBWSVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzPythiaVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzGazeVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzStrideVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzGHBVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzSMSVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzAnalyzeVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzCBWTWriterVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/check/ -run '^$$' -fuzz '^FuzzCBWTDecoderVsRef$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzStreamChunkFraming$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/service/ -run '^$$' -fuzz '^FuzzStreamQueue$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/trace/corpus/ -run '^$$' -fuzz '^FuzzCorpusRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/trace/corpus/ -run '^$$' -fuzz '^FuzzCorpusParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# Golden determinism gate: rebuild the full-matrix manifest with serial
# and parallel fills and require both to match golden/seed.json byte
# for byte. To re-baseline after an intentional behaviour change:
#   go run ./cmd/figures -n 400000 -warmup 100000 -golden golden/seed.json
golden:
	$(GO) build -o /tmp/cbws-figures ./cmd/figures
	/tmp/cbws-figures -n 400000 -warmup 100000 -par 1 -golden /tmp/cbws-golden-serial.json
	/tmp/cbws-figures -n 400000 -warmup 100000 -par 0 -golden /tmp/cbws-golden-parallel.json
	cmp /tmp/cbws-golden-serial.json golden/seed.json
	cmp /tmp/cbws-golden-parallel.json golden/seed.json

# Checked-build golden fill: the same matrix with the cbwscheck
# invariant hooks compiled in (cache MSHR bounds, ROB order, CBWS
# vector bounds), so every golden cell runs under them, and
# the manifest must still match golden/seed.json byte for byte.
golden-check:
	$(GO) build -tags cbwscheck -o /tmp/cbws-figures-checked ./cmd/figures
	/tmp/cbws-figures-checked -n 400000 -warmup 100000 -par 0 -golden /tmp/cbws-golden-checked.json
	cmp /tmp/cbws-golden-checked.json golden/seed.json

# Install the pinned third-party analysis tools into GOBIN (network
# required once; the versions above keep it reproducible).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

staticcheck:
	staticcheck ./...

govulncheck:
	govulncheck ./...

# Custom analyzer suite (internal/lint), run on both build-tag variants
# so the cbwscheck-only files are covered too. Exit status: 0 clean,
# 1 findings, 2 usage error.
lint-custom:
	$(GO) run ./cmd/cbwslint ./...
	$(GO) run ./cmd/cbwslint -tags cbwscheck ./...

# Regenerate the frozen api/v1 wire-contract manifest. CI requires the
# committed file to match (`git diff --exit-code api/v1/compat.json`);
# breaking rewrites refuse to run without a CompatVersion note:
#   go run ./cmd/cbwslint -write-compat -compat-bump "<note>" ./api/v1
compat-manifest:
	$(GO) run ./cmd/cbwslint -write-compat ./api/v1

# Aggregate lint pass: formatting, vet, staticcheck (skipped with a
# notice when the pinned binary is not installed; run `make tools`),
# and the custom suite.
lint: fmt-check vet lint-custom
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; run 'make tools' (skipping)"; \
	fi

# Benchmark regression gate: the pipeline and CBWS hot-path benchmarks
# must stay within the baseline's time ratio with exact allocs/op.
# To re-baseline: make bench-gate BENCHGATE_FLAGS='-write BENCH_baseline.json'
# -write updates the measured entries and keeps every other one, and the
# file's max_time_ratio; it names each kept entry the run did not
# measure. A renamed or deleted benchmark's entry must be removed by hand.
BENCHGATE_FLAGS ?= -baseline BENCH_baseline.json
BENCH_GATED = BenchmarkPipelineEventsPerSec$$|BenchmarkWorkloadGenerate$$|BenchmarkCBWSOnAccess$$|BenchmarkCorpusReplayEventsPerSec$$|BenchmarkPythiaOnAccess$$|BenchmarkGazeOnAccess$$|BenchmarkStrideOnAccess$$|BenchmarkGHBOnAccess$$|BenchmarkSMSOnAccess$$|BenchmarkPrefetcherReplay$$|BenchmarkHierarchyAccessInto$$|BenchmarkGoldenCell$$|BenchmarkTraceCapture$$|BenchmarkTraceDecode$$|BenchmarkCorpusPack$$|BenchmarkTraceAnalyze$$|BenchmarkCensus$$
# The end-to-end benchmark (bench/) is its own module, so the root
# `go test ./...` never compiles it; vet and test it against the
# current tree's APIs.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Two passes over the gated benchmarks. The timing pass (-count 3,
# default GC) supplies ns/op. benchgate then builds the test binary and
# runs the alloc pass itself (GOGC=off, fixed iteration count), which
# alone supplies the exact allocs/op pin: Go counts allocations
# process-wide, and a collection would add the runtime's own.
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_GATED)' -count 3 . | tee /tmp/cbws-bench.out
	$(GO) run ./cmd/benchgate $(BENCHGATE_FLAGS) -input /tmp/cbws-bench.out -bench '$(BENCH_GATED)'

# Paired A/B gate over the same benchmarks: the merge-base with main
# (or BENCH_AB_BASE, any revision: CI passes a push's parent) against
# the working tree, alternated for 20 rounds; fails when a benchmark's
# median slowdown is above 10% with at least 95% confidence. Needs a
# local main branch, or BENCH_AB_BASE, and the history back to the
# base. A benchmark the base lacks is skipped.
BENCH_AB_BASE ?=
bench-ab:
	$(GO) run ./cmd/benchgate -ab $(if $(BENCH_AB_BASE),-base $(BENCH_AB_BASE)) -bench '$(BENCH_GATED)'

check: build vet fmt-check test race obs-smoke
