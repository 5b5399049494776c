# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make ci` locally means a green CI run.

GO ?= go

.PHONY: build test test-race vet fmt fmt-check lint staticcheck sirenlint fuzz-smoke bench bench-smoke bench-store bench-read bench-serve bench-gate bench-gate-run bench-rebaseline test-replay test-cluster test-serve test-failover test-runs test-obs ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails when any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Pinned so CI and laptops agree on the finding set. `go run` resolves the
# tool from the module cache or the network; on an offline machine with a
# cold cache there is nothing to run, so the target degrades to a skip
# instead of failing the whole lint bundle.
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline, cold module cache): skipping"; \
	fi

# The project's own analyzer (cmd/sirenlint): type-checks the whole module
# and enforces the concurrency/durability/serving contracts of DESIGN.md §10.
# Exit 1 means an unsuppressed finding; fix it or add a reasoned
# `//lint:ignore <rule> <why>` on the offending line.
sirenlint:
	$(GO) run ./cmd/sirenlint .

lint: vet fmt-check staticcheck sirenlint

# 10 seconds of coverage-guided fuzzing per target — enough to replay the
# checked-in seeds (including the hostile-TOT reassembly datagram) plus a
# short randomized excursion, cheap enough for every CI push. Go allows one
# -fuzz pattern per invocation, hence one run per target.
# FuzzRunDecode and FuzzConsolidate cap minimization at 5 attempts: the
# default 60s budget per shrink makes a single found crash look like a hang
# in CI logs, and spends FuzzConsolidate's ten seconds shrinking new coverage
# instead of comparing the kernel with its oracle.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzWireParse$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzReassemble$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzConsolidate$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/postprocess
	$(GO) test -run=NONE -fuzz='^FuzzParseDigest$$' -fuzztime=10s ./internal/ssdeep
	$(GO) test -run=NONE -fuzz='^FuzzRunDecode$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/sirendb/runfmt
	$(GO) test -run=NONE -fuzz='^FuzzEditKernels$$' -fuzztime=10s ./internal/editdist

# Full benchmark suite (regenerates the evaluation tables alongside timings).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration per benchmark: proves every bench still compiles and runs
# (includes the segmented-store benchmarks in internal/sirendb and the
# receiver ingest benchmarks in internal/receiver).
# -short skips the 100k-entry identify catalogs: the smoke run proves the
# benches compile and run, not how they scale.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short ./...

# Segmented-store throughput: the sharded-store insert path and the receiver
# ingest path over it (EXPERIMENTS.md §3).
bench-store:
	$(GO) test -run=NONE -bench='BenchmarkInsertBatch|BenchmarkReceiverIngest' -benchmem ./internal/sirendb ./internal/receiver

# Read-path benchmarks (EXPERIMENTS.md §4/§5): snapshot scans, insert
# latency under a concurrent scanner, per-job index merges, the streaming
# consolidation, and the multi-receiver merged-snapshot consolidation vs the
# single store —
# always with -benchmem so allocation regressions are visible. Override
# BENCHTIME (e.g. BENCHTIME=1x) for a smoke run, -cpu via BENCHCPU for the
# parallel-speedup curve on multi-core hosts.
BENCHTIME ?= 2s
BENCHCPU ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)
bench-read:
	$(GO) test -run=NONE -bench='BenchmarkScanSnapshot|BenchmarkInsertDuringScan|BenchmarkByJob|BenchmarkJobs|BenchmarkConsolidate|BenchmarkMergedConsolidate' \
		-benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) ./internal/sirendb ./internal/postprocess

# WAL durability suite under the race detector: replay-corruption matrix,
# crash-mid-group-commit and crash-mid-seal recovery, locking, and
# shard-count changes. The focused uncached runner for store work;
# test-race already covers these tests, so ci does not run them twice.
test-replay:
	$(GO) test -race -count=1 -run 'Replay|Corrupt|Crash|Torn|GroupCommit|Closed|Locked|Seal|ShardCount|Persist' ./internal/sirendb

# Sealed-run storage tier suite under the race detector: the seal crash
# matrix (debris sweep, post-marker roll-forward, torn-committed-run
# detection), retention, read-only shared-lock opens, and the
# sealed-vs-replay consolidation equivalence.
test-runs:
	$(GO) test -race -count=1 -run 'Seal|ReadOnly|RoundTrip|JobCursor|WriteSorts|WriteEmpty|CorruptionDetected' \
		./internal/sirendb ./internal/sirendb/runfmt ./internal/postprocess

# Multi-receiver deployment suite under the race detector: partition
# admission at the receiver, merged snapshots over member databases, the
# merged-vs-single consolidation equivalence, and the 3-receiver UDP
# end-to-end run (real siren-receiver processes, byte-compared reports).
test-cluster:
	$(GO) test -race -count=1 -run 'MultiReceiver|Partition|Merged|OpenSet' \
		. ./internal/receiver ./internal/sirendb ./internal/postprocess ./internal/wire

# Failover suite under the race detector (DESIGN.md §11): rendezvous
# ownership and view convergence, confirm-probed death reporting, sender
# journal-replay dispatch, merge-back overlap dedup, and the kill-one-of-N
# UDP end-to-end run (SIGKILL a member mid-campaign, byte-compared reports).
test-failover:
	$(GO) test -race -count=1 -run 'Failover|Membership|Dedup|Prober|Dispatch|Backoff|Probe|Roster|Route|Health|Score|PartitionHashGolden' \
		. ./internal/membership ./internal/campaign ./internal/receiver ./internal/sirendb ./internal/postprocess ./internal/wire

# Serving-tier suite under the race detector: watermark deltas, incremental
# catalog refresh vs full-rebuild equivalence, the generation-swap contract
# under concurrent queries, every query endpoint, and the live
# concurrent-ingest+query end-to-end runs (in-process and as a real
# siren-receiver -serve-addr / siren-serve process).
test-serve:
	$(GO) test -race -count=1 \
		-run 'JobsChangedSince|Incremental|CatalogOverMerged|ConcurrentQueries|Identify|ReadEndpoints|GracefulShutdown|ServeCommand|ReceiverServe' \
		. ./internal/catalog ./internal/server ./internal/sirendb

# Telemetry suite under the race detector (DESIGN.md §13): the obs core
# (lock-free records racing scrapes and registration), the Prometheus
# exposition golden and grammar tests, the per-tier instrument tests
# (receiver stages, server percentiles and shape-compat pins, membership
# probe/retry), and the live-campaign /metrics scrape of a real
# siren-receiver process with -pprof.
test-obs:
	$(GO) test -race -count=1 \
		-run 'Histogram|Counter|Gauge|Registry|RegisterDuringScrape|Prometheus|Expvar|Metrics|StatsLine|Percentiles|DebugVars|ProberInstrumented|RetryTransportBridge|NilSafety|BucketBounds' \
		. ./internal/obs ./internal/receiver ./internal/server ./internal/membership

# Serving-tier benchmarks (EXPERIMENTS.md §6): identify throughput through
# the full handler stack, and incremental-vs-full catalog refresh across
# store sizes — the flat incremental line is the claim.
bench-serve:
	$(GO) test -run=NONE -bench='BenchmarkIdentify|BenchmarkCatalogRefresh' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/catalog ./internal/server

# Benchmark-regression gate (DESIGN.md §9). One representative benchmark per
# tier — indexed identify (analysis and full handler stack), the cold
# fingerprint-index build a replica pays at start-up, incremental
# catalog refresh, store insert, receiver ingest, the sealed-vs-replay
# open pair (the flat sealed open is the storage tier's claim), and the
# consolidation every refresh and every analysis runs (through the store, and
# the kernel alone on the campaign capture) — plus the
# scoring kernels by themselves (a 64-byte distance and a 1000-entry Matcher
# query): in a geomean over a dozen benchmarks a return to DP cost in
# BenchmarkIdentify alone would sit at the threshold, with these two it is
# far past it. Each is run -count times with -benchmem so
# benchdiff can take the noise-resistant minimum, compared against the
# committed baseline and failing on a >25% geometric-mean slowdown or on any
# one benchmark's allocs/op rising >10% (counts repeat, so they get no
# geomean slack). After an
# intentional perf change, re-baseline with `make bench-rebaseline` on the
# reference machine and commit the new BENCH_BASELINE.json.
BENCH_GATE_COUNT ?= 5
BENCH_BASELINE ?= BENCH_BASELINE.json
BENCH_GATE_OUT ?= .bench/gate.txt

bench-gate-run:
	@mkdir -p .bench && rm -f $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkIdentify/n=10000$$/indexed$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/analysis | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkIndexDerive/rebuild/n=10000$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/analysis | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkMatcher1000$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/ssdeep | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkWeighted64$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/editdist | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkIdentify/serial/jobs=16$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/server | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkCatalogRefresh/incremental/jobs=16$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/catalog | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkInsertBatch/store=mem/shards=4/writers=4$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/sirendb | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkReceiverIngest/shards=4/payload=512$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/receiver | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkIngestInstrumented/shards=4/payload=512$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/receiver | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkHistogramRecord$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/obs | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkOpenSealed/rows=10000$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/sirendb | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkOpenReplay/rows=10000$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/sirendb | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='^BenchmarkConsolidate$$/streaming-workers=1$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/postprocess | tee -a $(BENCH_GATE_OUT)
	$(GO) test -run=NONE -bench='BenchmarkConsolidateCampaign$$' -benchmem -count=$(BENCH_GATE_COUNT) ./internal/postprocess | tee -a $(BENCH_GATE_OUT)

bench-gate: bench-gate-run
	$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -threshold 1.25 $(BENCH_GATE_OUT)

bench-rebaseline: bench-gate-run
	$(GO) run ./cmd/benchdiff -write -out $(BENCH_BASELINE) $(BENCH_GATE_OUT)

# Everything the three CI jobs run (test, e2e, bench), serially.
ci: build vet fmt-check staticcheck sirenlint test-race test-runs test-cluster test-failover test-serve test-obs fuzz-smoke bench-smoke
	$(MAKE) bench-read BENCHTIME=1x
	$(MAKE) bench-serve BENCHTIME=1x
	$(MAKE) bench-gate
