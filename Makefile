GO ?= go

.PHONY: build test test-short test-cover test-fuzz-smoke test-race-stress verify bench bench-served bench-served-trace bench-wcoj bench-fastpath bench-reach bench-baseline bench-compare clean

# Benchmarks covered by bench-baseline/bench-compare: the sorted-set
# kernels and the parallel operator suite — the hot paths a perf PR must
# not regress.
BENCH_PKGS   = ./internal/gdb ./internal/rjoin
BENCH_FILTER = 'BenchmarkIntersect|BenchmarkOperatorParallel'
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
# seeds. Bump FUZZTIME for a deeper soak (e.g. FUZZTIME=10m).
FUZZTIME ?= 30s
test-fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzEdgeInsertDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzEdgeDeleteDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzReachCrossBackend -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzFastPathDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzIncrementalInsert -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzIncrementalDelete -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzLeapfrogMultiwayIntersect -fuzztime $(FUZZTIME) ./internal/gdb

# test-cover enforces a per-package statement-coverage floor on the
# reachability-index packages: the generic labeling core and registry, and
# both backends. These packages carry the correctness story for every
# graph code the engine stores, so untested lines there are disallowed
# rather than discouraged.
COVER_FLOOR ?= 80
COVER_PKGS   = ./internal/reach ./internal/pll ./internal/twohop
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
# (prefix consistency, epoch retirement) and the stalled-writer
# no-reader-blocking probe. The full -race suite runs them once; the
# elevated count shakes out more interleavings.
test-race-stress:
	$(GO) test -race -count=3 -run 'TestConcurrentInsertQueryConsistency' .
	$(GO) test -race -count=3 -run 'TestInsertDoesNotBlockReaders|TestPinnedEpochOutlivesPublish|TestBatchPublishesOneEpoch' ./internal/gdb
	$(GO) test -race -count=3 -run 'TestConcurrentInsertAndQueryPrefixConsistency|TestConcurrentMutateAndQueryPrefixConsistency' ./internal/server
	$(GO) test -race -count=3 ./internal/epoch

# verify is the gating tier: vet plus the full suite under the race
# detector, so concurrency regressions in the query-serving path cannot
# land silently, then the coverage floor on the reachability packages, the
# MVCC stress smoke, and a fuzz smoke over the incremental-maintenance
# harnesses.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) test-cover
	$(MAKE) test-race-stress
	$(MAKE) test-fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/fgmbench -exp rjoin -out BENCH_rjoin.json
	$(GO) run ./cmd/fgmbench -exp build -out BENCH_build.json
	$(GO) run ./cmd/fgmbench -exp wcoj -out BENCH_wcoj.json
	$(GO) run ./cmd/fgmbench -exp fastpath -out BENCH_fastpath.json
	$(GO) run ./cmd/fgmbench -exp reach -out BENCH_reach.json

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

# bench-wcoj measures the worst-case-optimal multiway join against the
# binary pipeline on the cyclic workload battery and refreshes the
# committed BENCH_wcoj.json baseline.
bench-wcoj:
	$(GO) run ./cmd/fgmbench -exp wcoj -out BENCH_wcoj.json

# bench-fastpath measures default execution against the counted-I/O
# reference mode on the index-only battery and refreshes the committed
# BENCH_fastpath.json baseline.
bench-fastpath:
	$(GO) run ./cmd/fgmbench -exp fastpath -out BENCH_fastpath.json

# bench-reach compares the registered reachability-index backends (build
# time, labeling size, probe and query latency) and refreshes the
# committed BENCH_reach.json baseline.
bench-reach:
	$(GO) run ./cmd/fgmbench -exp reach -out BENCH_reach.json

# bench-baseline records the kernel benchmarks (10 runs, for benchstat
# confidence intervals) into $(BENCH_BASE); run it on the commit you want
# to compare against, then run bench-compare on your change.
bench-baseline:
	$(GO) test -run XXX -bench $(BENCH_FILTER) -benchmem -count 10 $(BENCH_PKGS) | tee $(BENCH_BASE)

# bench-compare reruns the same benchmarks and diffs them against the
# stored baseline with benchstat when it is installed (golang.org/x/perf);
# without benchstat it leaves both files for manual inspection. Each named
# BENCH_*.json guard runs only when its baseline is committed — a missing
# baseline skips that guard (with a note) instead of failing, so partial
# checkouts and fresh experiment IDs don't break the target.
bench-compare:
	@test -f $(BENCH_BASE) || { echo "no $(BENCH_BASE); run 'make bench-baseline' on the base commit first" >&2; exit 1; }
	$(GO) test -run XXX -bench $(BENCH_FILTER) -benchmem -count 10 $(BENCH_PKGS) | tee bench-head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASE) bench-head.txt; \
	else \
		echo "benchstat not installed; compare $(BENCH_BASE) vs bench-head.txt by hand" >&2; \
	fi
	@for exp in wcoj fastpath reach; do \
		if [ -f BENCH_$$exp.json ]; then \
			$(GO) run ./cmd/fgmbench -exp $$exp -out bench-$$exp-head.json -compare BENCH_$$exp.json || exit 1; \
		else \
			echo "no BENCH_$$exp.json baseline; skipping $$exp guard (run 'make bench-$$exp' to record one)"; \
		fi; \
	done

clean:
	$(GO) clean ./...
