# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make ci` locally means a green CI run.

GO ?= go

.PHONY: build cross-build test test-race test-386 vet fmt fmt-check lint staticcheck sirenlint fuzz-smoke bench bench-smoke bench-store bench-read bench-serve bench-gate test-replay test-serve test-failover test-runs test-obs ci

build:
	$(GO) build ./...

# Cross-compile every package except bench/ — Linux-only by design
# (Pdeathsig, Statfs) — for the other operating systems and word sizes the
# receiver supports, so the portable ReadFrom reader, the per-arch
# mmsghdr layout and the other _other.go files keep compiling. The
# receiver's tests are compiled too: they pin that layout.
CROSS_TARGETS ?= darwin/amd64 windows/amd64 freebsd/amd64 linux/386 linux/arm64
cross-build:
	@set -e; pkgs="$$($(GO) list ./... | grep -v '/bench$$')"; \
	for t in $(CROSS_TARGETS); do \
		echo "cross-build $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) build $$pkgs; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) test -c -o /dev/null ./internal/receiver; \
	done

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The short suite on a 32-bit target (linux/386 runs natively on amd64
# hosts): every package but bench/, so 64-bit atomics on unaligned fields and
# int conversions that go negative fail here instead of in the field.
# CGO_ENABLED=0: the nodefaultmux lint fixture type-checks net/http, which on
# 386 would otherwise need a 32-bit C toolchain.
test-386:
	CGO_ENABLED=0 GOARCH=386 $(GO) test -short $$($(GO) list ./... | grep -v '/bench$$')

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
	$(GO) test -run=NONE -fuzz='^FuzzDecoder$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzScan$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzReassemble$$' -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz='^FuzzConsolidate$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/postprocess
	$(GO) test -run=NONE -fuzz='^FuzzParseDigest$$' -fuzztime=10s ./internal/ssdeep
	$(GO) test -run=NONE -fuzz='^FuzzIndexCandidates$$' -fuzztime=10s ./internal/ssdeep
	$(GO) test -run=NONE -fuzz='^FuzzHashOnePass$$' -fuzztime=10s ./internal/ssdeep
	$(GO) test -run=NONE -fuzz='^FuzzRunDecode$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/sirendb/runfmt
	$(GO) test -run=NONE -fuzz='^FuzzEditKernels$$' -fuzztime=10s ./internal/editdist
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/elfx

# Full benchmark suite, timings only: the paper's tables are pinned by
# TestEvaluationReportRenders and recognition by TestRecognitionOnVariantSweep.
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
# latency under a concurrent scanner, the streaming consolidation, and the
# multi-receiver merged-snapshot consolidation vs the single store —
# always with -benchmem so allocation regressions are visible. Override
# BENCHTIME (e.g. BENCHTIME=1x) for a smoke run, -cpu via BENCHCPU for the
# parallel-speedup curve on multi-core hosts.
BENCHTIME ?= 2s
BENCHCPU ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)
bench-read:
	$(GO) test -run=NONE -bench='BenchmarkScanSnapshot|BenchmarkInsertDuringScan|BenchmarkConsolidate|BenchmarkMergedConsolidate' \
		-benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) ./internal/sirendb ./internal/postprocess

# WAL durability suite under the race detector: replay-corruption matrix,
# crash-mid-group-commit and crash-mid-seal recovery, locking, and
# shard-count changes. The focused uncached runner for store work;
# test-race already covers these tests, so ci does not run them twice.
test-replay:
	$(GO) test -race -count=1 -run 'Replay|Corrupt|Crash|Torn|GroupCommit|Closed|Locked|Seal|ShardCount|Persist' ./internal/sirendb

# Sealed-run storage tier suite under the race detector: the seal crash
# matrix (debris sweep, post-marker roll-forward, torn-committed-run
# detection), retention, read-only shared-lock opens, the run writer's
# (JOBID, seq) order and empty-run refusals, the sealed-vs-replay
# consolidation equivalence, the canonical-bytes rule on replay and run
# reads, the lifetime of the row views a consolidation reads (records
# outlive the run mappings), and the oracle tests that pin snapshots and the
# consolidation against whole-store passes.
test-runs:
	$(GO) test -race -count=1 -run 'Seal|ReadOnly|RoundTrip|JobCursor|AddOutOfOrder|CloseEmpty|CorruptionDetected|Canonical|Lifetime|Oracle' \
		./internal/sirendb ./internal/sirendb/runfmt ./internal/postprocess

# Multi-receiver suite under the race detector (DESIGN.md §11): roster
# admission at the receiver, rendezvous ownership and view convergence,
# confirm-probed death reporting, sender journal-replay dispatch, merged
# snapshots over member databases, the merged-vs-single consolidation
# equivalence, the merge-back of rows two members hold (the Dedup shapes and
# the failover merge, each copy counted once by consolidation), and the two
# UDP end-to-end runs — three members of a roster nobody probes against a
# single receiver, and kill-one-of-N (SIGKILL a member mid-campaign) — both
# byte-comparing the merged report.
test-failover:
	$(GO) test -race -count=1 -run 'MultiReceiver|Merged|OpenSet|Failover|Membership|Dedup|Prober|Dispatch|Backoff|Probe|Roster|Route|Health|Score|PartitionHashGolden' \
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
# (lock-free records racing scrapes and registration) and its runtime
# gauges, the Prometheus exposition golden and grammar tests, the per-tier
# instrument tests (receiver stages, the Stats-to-/metrics and
# StoreStats-to-/metrics parity walks, the stats record, server percentiles
# and the /api/v1/stats-to-/metrics one-instrument pin, membership
# probe/retry counters), and the /metrics scrapes of real siren-receiver
# processes, one live campaign with -pprof and one roster member.
test-obs:
	$(GO) test -race -count=1 \
		-run 'Histogram|Counter|Gauge|Registry|RegisterDuringScrape|Prometheus|Metrics|StatsLine|Percentiles|ProberInstrumented|BucketBounds' \
		. ./internal/obs ./internal/receiver ./internal/server ./internal/membership ./internal/sirendb

# Serving-tier benchmarks (EXPERIMENTS.md §6): identify throughput through
# the full handler stack, and incremental-vs-full catalog refresh across
# store sizes — the flat incremental line is the claim.
bench-serve:
	$(GO) test -run=NONE -bench='BenchmarkIdentify|BenchmarkCatalogRefresh' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/catalog ./internal/server

# Benchmark-regression gate (DESIGN.md §9): cmd/benchdiff races this
# checkout against BENCH_PARENT in one session — five alternating pairs of
# `go test -bench -benchmem -count=1` per gated benchmark, the side that
# runs first flipping every pair — and fails a benchmark whose median ns/op
# is more than 25 % above the parent's with more pairs lost than won, whose
# lowest allocs/op is above the parent's highest, or that the change no
# longer reports. BENCH_PARENT is a git revision or a directory; in CI's
# pull-request merge commit HEAD~1 is the base. One representative benchmark
# per tier, each PACKAGE:'PATTERN': indexed identify (analysis and full
# handler stack), the cold fingerprint-index build a replica pays at
# start-up, the scoring kernel by itself (a 64-byte distance), incremental
# catalog refresh, store insert, receiver ingest, a telemetry record, the
# sealed-vs-replay open pair (the flat sealed open is the storage tier's
# claim; the 100k-row replay is where the four segments replay concurrently),
# Seal (the store's one rewrite transaction), the consolidation every
# refresh and every analysis runs (through the store, over sealed runs plus a
# replayed head as a restarted store reads it, by one worker and by the
# default one per shard, and the kernel alone on the campaign capture), and
# the collector's per-process cost (the CTPH kernel alone, one user process
# collected end to end, and one process of each of four executables of 16 to
# 64 KiB).
BENCH_PARENT ?= HEAD~1

bench-gate:
	$(GO) run ./cmd/benchdiff -parent $(BENCH_PARENT) \
		./internal/analysis:'BenchmarkIdentify/n=10000$$/indexed$$' \
		./internal/analysis:'BenchmarkIndexDerive/rebuild/n=10000$$' \
		./internal/editdist:'BenchmarkWeighted64$$' \
		./internal/server:'BenchmarkIdentify/serial/jobs=16$$' \
		./internal/catalog:'BenchmarkCatalogRefresh/incremental/jobs=16$$' \
		./internal/sirendb:'BenchmarkInsertBatch/store=mem/shards=4/writers=4$$' \
		./internal/receiver:'BenchmarkReceiverIngest/shards=4/payload=512$$' \
		./internal/obs:'BenchmarkHistogramRecord$$' \
		./internal/sirendb:'BenchmarkOpenSealed/rows=10000$$' \
		./internal/sirendb:'BenchmarkOpenReplay/rows=10000$$' \
		./internal/sirendb:'BenchmarkOpenReplay/rows=100000$$' \
		./internal/sirendb:'BenchmarkSeal/rows=10000$$' \
		./internal/postprocess:'^BenchmarkConsolidate$$/streaming-workers=1$$' \
		./internal/postprocess:'BenchmarkConsolidateCampaign$$' \
		./internal/postprocess:'BenchmarkConsolidateSealed$$' \
		./internal/postprocess:'BenchmarkConsolidateSealedParallel$$' \
		./internal/ssdeep:'BenchmarkHash1M$$' \
		./internal/collector:'BenchmarkCollectUserProcess$$' \
		./internal/collector:'BenchmarkCollectCorpus$$'

# Everything the three CI jobs run (test, e2e, bench), serially.
ci: build cross-build vet fmt-check staticcheck sirenlint test-race test-386 test-runs test-failover test-serve test-obs fuzz-smoke bench-smoke
	$(MAKE) bench-read BENCHTIME=1x
	$(MAKE) bench-serve BENCHTIME=1x
	$(MAKE) bench-gate
