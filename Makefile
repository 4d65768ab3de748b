GO ?= go

.PHONY: build test test-short test-cover test-fuzz-smoke test-race-stress verify bench bench-served bench-served-trace bench-served-pair bench-baseline bench-compare profile-battery clean

# Benchmarks covered by bench-baseline/bench-compare: the sorted-set
# kernels, the two per-row index reads (partner slot, reachability test),
# the four binary R-join operators, a Fetch with the filters on its new node
# fused against the step-by-step pipeline (ns per input row; XMark groups
# and the read_skew groups S1served and S4served; for P8's semijoin-only
# Fetch also its group folded into a filtered table against every list
# filtered by RankSet.FilterTo), a leading semijoin group over a whole
# extent reduced word by word against tested node by node (ns per extent
# node, XMark and the power-law DAG), a plan's Fetches left
# factorised against written out (ns per result row and B/op: F7, T9, T5,
# T6, P8 and Q1, and one flatten point)
# and the response encoder (ns per row from a served-shaped, a synthetic, a
# tree-shaped wide and a two-list product factorised result and from a
# plain one) and the writer (a 4-edge insert batch and the delete batch
# that undoes it on XMark 100k: ns, B and allocs per pair, pages the store
# grew per pair and its size over the built size), and the served batteries
# through the HTTP handler (ns, B and allocs per query of every
# TestServedAnswers query, and per battery) — the hot paths a perf PR must
# not regress.
BENCH_PKGS   = . ./internal/gdb ./internal/rjoin ./internal/server
BENCH_FILTER = 'BenchmarkIntersect|BenchmarkReadPathParallel|BenchmarkOperators|BenchmarkFilterFetch|BenchmarkFetchFilters|BenchmarkFilterExtent|BenchmarkFactorisedTail|BenchmarkEncodeResult|BenchmarkWriteBatch|BenchmarkServedBattery'
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
# last six lines run benchmarks once for the checks they carry: the read
# path's allocation-free hit path, the fused Fetch's and the factorised
# tail's row counts against the step-by-step pipeline's, the response
# encoder's allocation-free warm buffer, the writer's insert/delete pair
# applying every edge and the served batteries' answers against
# testdata/served_answers.txt. BenchmarkFetchFilters includes
# the read_skew groups S1served and S4served on the power-law DAG.
FUZZTIME ?= 30s
test-fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzEdgeInsertDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzEdgeDeleteDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzFastPathDifferential -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzReachCrossBackend -fuzztime $(FUZZTIME) .
	$(GO) test -run XXX -fuzz FuzzIncrementalInsert -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzIncrementalDelete -fuzztime $(FUZZTIME) ./internal/reach
	$(GO) test -run XXX -fuzz FuzzLeapfrogMultiwayIntersect -fuzztime $(FUZZTIME) ./internal/gdb
	$(GO) test -run XXX -fuzz FuzzEncodeResult -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run XXX -bench BenchmarkReadPathParallel -benchtime 1x -cpu 1,2 ./internal/gdb
	$(GO) test -run XXX -bench 'BenchmarkFetchFilters|BenchmarkFilterExtent' -benchtime 1x ./internal/rjoin
	$(GO) test -run XXX -bench BenchmarkFactorisedTail -benchtime 1x ./internal/rjoin
	$(GO) test -run XXX -bench BenchmarkEncodeResult -benchtime 1x ./internal/server
	$(GO) test -run XXX -bench BenchmarkWriteBatch -benchtime 1x ./internal/gdb
	$(GO) test -run XXX -bench BenchmarkServedBattery -benchtime 1x .

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
# no-reader-blocking probe, readers racing to fill one partner table,
# readers filling the old epoch's tables while a publish carries them, the
# partner slots a publish carries checked after every mixed batch, readers
# filling chunks shared by several pinned epochs, the memo charge of
# chunks those epochs share, and the projection sets a publish carries or
# patches — rank sets shared between pinned epochs as partner chunks are —
# checked after every publish and under a reader pinned to the old epoch,
# and page recycling: a reader pinned across 60 batches reading identical
# rows while the pages they supersede recycle around it, the store staying
# flat over insert/delete pairs, every base-table record and decoded code
# equal to the writer's incremental labeling after each mixed batch, and a
# crash after a Sync reopening the synced state; and the buffer pool:
# readers and scratch heaps sharing one pool, shrinks and regrowths under
# readers, the single LRU's hits and shrink order, and parallel queries on
# a pool shrunk after the build; and the served path's buffer reuse: four
# goroutines serving the skew20k battery through one handler, each query
# drawing the storage the one before it released, every body checked
# against testdata/served_answers.txt. The full -race suite runs them once;
# the elevated count shakes out more interleavings.
test-race-stress:
	$(GO) test -race -count=3 -run 'TestConcurrentInsertQueryConsistency' .
	$(GO) test -race -count=3 -run 'TestInsertDoesNotBlockReaders|TestPinnedEpochOutlivesPublish|TestBatchPublishesOneEpoch|TestPartnerTableConcurrentFill|TestPartnerChargeWhileReadersFillDuringPublish|TestReadPathExactAfterEveryPublish|TestSharedChunkFillsValidInEveryEpoch|TestDecodedMemoChargedOncePerChunk|TestProjectionsExactAfterEveryPublish|TestSuccessorInheritsProjections|TestPinnedReaderAcrossRecycling|TestWriteStreamReclaims|TestBaseRecordsFollowLabeling|TestCrashAfterSyncOpensSyncedState' ./internal/gdb
	$(GO) test -race -count=3 -run 'TestConcurrentInsertAndQueryPrefixConsistency|TestConcurrentMutateAndQueryPrefixConsistency' ./internal/server
	$(GO) test -race -count=3 ./internal/epoch
	$(GO) test -race -count=3 -run 'TestBufferPoolConcurrentReaders|TestConcurrentScratchHeaps|TestResizeUnderLoad|TestPoolIsOneLRU' ./internal/storage
	$(GO) test -race -count=3 -run TestParallelQueryAfterPoolShrink ./internal/exec
	$(GO) test -race -count=3 -run TestServedReuseConcurrent .

# verify is the gating tier: vet plus the full suite under the race
# detector, so concurrency regressions in the query-serving path cannot
# land silently, the differential and prefix-consistency suites again on
# one core (the suite must be green at any core count), every served
# answer held against the index-free oracle (exec.NaiveMatch over the
# transitive closure; the XMark 100k closure takes about 1.25 GB and the
# run about a minute), the served answers,
# the encoder tests and a short encoder fuzz built with -tags fgmcheck
# (every unchecked store of the response encoder bounds-checked, which
# neither -race nor -d=checkptr does, and every buffer a served query
# releases poisoned, so an answer read from a reused buffer changes a golden
# hash), then the coverage floor on the
# reachability packages, the MVCC stress smoke, and a fuzz smoke over the
# incremental-maintenance harnesses.
verify:
	$(GO) vet ./...
	$(GO) vet -tags fgmcheck ./internal/rjoin ./internal/server
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -run 'Differential|Crosscheck|PrefixConsistency' . ./internal/server
	$(GO) test -run TestServedAnswers -oracle .
	$(GO) test -tags fgmcheck -run 'TestServedAnswers|TestEncode|TestPutNodeID|TestQueryResponseEncoding|TestReleasePoisons' . ./internal/rjoin ./internal/server
	$(GO) test -tags fgmcheck -run XXX -fuzz FuzzEncodeResult -fuzztime 10s ./internal/server
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
# table one command. OUT=<file> also writes the comparison as JSON (the
# BENCH_*.json a performance claim commits); CLAIM=<metric> records there
# whether that metric improved on every workload run.
PAIRS ?= 10
bench-served-pair:
	$(GO) run ./scripts/benchpair -base '$(BASE)' -workload '$(WORKLOAD)' -pairs $(PAIRS) \
		$(if $(OUT),-out '$(OUT)') $(if $(CLAIM),-claim '$(CLAIM)')

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

# profile-battery writes a CPU profile of BenchmarkServedBattery (both
# served batteries through the HTTP handler) to $(PROFILE) and prints its
# top functions: where a served query's CPU goes, allocation and GC
# included.
PROFILE          ?= battery.cpu.prof
PROFILE_BENCHTIME ?= 2s
profile-battery:
	$(GO) test -run XXX -bench BenchmarkServedBattery -benchtime $(PROFILE_BENCHTIME) -cpuprofile $(PROFILE) -o battery.test .
	$(GO) tool pprof -top -nodecount 40 battery.test $(PROFILE)

clean:
	$(GO) clean ./...
