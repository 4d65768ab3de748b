GO ?= go

.PHONY: build test test-short test-cover test-fuzz-smoke test-race-stress verify bench bench-served bench-served-trace bench-served-pair bench-baseline bench-compare clean

# Benchmarks covered by bench-baseline/bench-compare: the sorted-set
# kernels, the two per-row index reads (partner slot, reachability test),
# the four binary R-join operators, a Fetch with the filters on its new node
# fused against the step-by-step pipeline (ns per input row) and the
# response encoder (ns per row from a served-shaped and a synthetic
# factorised result and from a plain one) — the hot paths a perf PR must
# not regress — plus the open strategy question of binary vs
# worst-case-optimal plans on cyclic cores.
BENCH_PKGS   = ./internal/gdb ./internal/rjoin ./internal/exec ./internal/server
BENCH_FILTER = 'BenchmarkIntersect|BenchmarkReadPathParallel|BenchmarkOperators|BenchmarkFilterFetch|BenchmarkFetchFilters|BenchmarkEncodeResult|BenchmarkCyclicPlans'
BENCH_BASE   = bench-baseline.txt

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-fuzz-smoke runs each fuzz target's coverage-guided engine for a
# short budget ($(FUZZTIME) per target) on top of the seeded corpus, so
# the differential edge-insert harness and the 2-hop delta invariants get
# fresh random sequences on every verify run, not just the checked-in
# seeds, and the response encoder gets random results to match against
# encoding/json. Bump FUZZTIME for a deeper soak (e.g. FUZZTIME=10m). The
# last four lines run benchmarks once for the checks they carry: the strategy
# benchmark's cross-variant row counts (it replaces a harness that had its
# own, and must not rot), the read path's allocation-free hit path,
# the fused Fetch's row count against the step-by-step pipeline's and the
# response encoder's allocation-free warm buffer.
FUZZTIME ?= 30s
test-fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzEdgeInsertDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzEdgeDeleteDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzFastPathDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzIncrementalInsert -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzIncrementalDelete -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzLeapfrogMultiwayIntersect -fuzztime $(FUZZTIME) ./internal/gdb
	$(GO) test -run XXX -fuzz FuzzEncodeResult -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run XXX -bench BenchmarkCyclicPlans -benchtime 1x ./internal/exec
	$(GO) test -run XXX -bench BenchmarkReadPathParallel -benchtime 1x -cpu 1,2 ./internal/gdb
	$(GO) test -run XXX -bench BenchmarkFetchFilters -benchtime 1x ./internal/rjoin
	$(GO) test -run XXX -bench BenchmarkEncodeResult -benchtime 1x ./internal/server

# test-cover enforces a per-package statement-coverage floor on the
# reachability packages — the 2-hop cover and its labeling core (twohop)
# and its incremental repair (reach), which carry the correctness story for
# every graph code the engine stores — and on the optimizer, whose DP and
# DPS plans every query runs. Untested lines there are disallowed rather
# than discouraged.
COVER_FLOOR ?= 80
COVER_PKGS   = ./internal/reach ./internal/twohop ./internal/optimizer
test-cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg); echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported" >&2; exit 1; fi; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }' || \
			{ echo "$$pkg: coverage $$pct% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }; \
	done

# test-race-stress repeats the MVCC snapshot-epoch stress tests under the
# race detector: concurrent insert batches against lock-free readers
# (prefix consistency, epoch retirement), the stalled-writer
# no-reader-blocking probe, and readers racing to fill one partner table.
# The full -race suite runs them once; the elevated count shakes out more
# interleavings.
test-race-stress:
	$(GO) test -race -count=3 -run 'TestConcurrentInsertQueryConsistency' .
	$(GO) test -race -count=3 -run 'TestInsertDoesNotBlockReaders|TestPinnedEpochOutlivesPublish|TestBatchPublishesOneEpoch|TestPartnerTableConcurrentFill|TestCodeCacheBound' ./internal/gdb
	$(GO) test -race -count=3 -run 'TestConcurrentInsertAndQueryPrefixConsistency|TestConcurrentMutateAndQueryPrefixConsistency' ./internal/server
	$(GO) test -race -count=3 ./internal/epoch

# verify is the gating tier: vet plus the full suite under the race
# detector, so concurrency regressions in the query-serving path cannot
# land silently, the differential and prefix-consistency suites again on
# one core (the suite must be green at any core count), then the coverage
# floor on the reachability packages, the MVCC stress smoke, and a fuzz
# smoke over the incremental-maintenance harnesses.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -run 'Differential|Crosscheck|PrefixConsistency' . ./internal/server
	$(MAKE) test-cover
	$(MAKE) test-race-stress
	$(MAKE) test-fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-served runs the served-path benchmark (BENCHMARK.json: five
# workloads over loopback HTTP, every answer verified, end-to-end and
# per-layer metrics). It takes minutes, so it stays out of verify.
# bench-served-trace prints only the per-layer metrics of the two read
# workloads a read-path change must account for.
bench-served:
	$(GO) run ./benchmark

bench-served-trace:
	$(GO) run ./benchmark --workload read_pipeline --trace 1
	$(GO) run ./benchmark --workload read_fastpath --trace 1

# bench-served-pair is the paired comparison a performance claim needs:
#   make bench-served-pair BASE=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10]
# builds ./benchmark at BASE (exported to a temporary directory) and at the
# working tree, runs each WORKLOAD untraced for 15 s with seeds 1..PAIRS,
# alternating which side goes first, and prints one block per workload:
# per end-to-end metric each side's median and quartiles and how many pairs
# the working tree won. A comma-separated list makes a "must not move"
# table one command.
PAIRS ?= 10
bench-served-pair:
	$(GO) run ./scripts/benchpair -base '$(BASE)' -workload '$(WORKLOAD)' -pairs $(PAIRS)

# bench-baseline records the kernel benchmarks (10 runs, for benchstat
# confidence intervals) into $(BENCH_BASE); run it on the commit you want
# to compare against, then run bench-compare on your change.
bench-baseline:
	$(GO) test -run XXX -bench $(BENCH_FILTER) -benchmem -count 10 $(BENCH_PKGS) | tee $(BENCH_BASE)

# bench-compare reruns the same benchmarks and diffs them against the
# stored baseline with benchstat when it is installed (golang.org/x/perf);
# without benchstat it leaves both files for manual inspection.
bench-compare:
	@test -f $(BENCH_BASE) || { echo "no $(BENCH_BASE); run 'make bench-baseline' on the base commit first" >&2; exit 1; }
	$(GO) test -run XXX -bench $(BENCH_FILTER) -benchmem -count 10 $(BENCH_PKGS) | tee bench-head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASE) bench-head.txt; \
	else \
		echo "benchstat not installed; compare $(BENCH_BASE) vs bench-head.txt by hand" >&2; \
	fi

clean:
	$(GO) clean ./...
