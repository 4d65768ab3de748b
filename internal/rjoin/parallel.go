package rjoin

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"fastmatch/internal/graph"
)

// Partition grains: a partition is only split off when it would hold at
// least this many work units, so small inputs run inline and the goroutine
// overhead stays off the fast path. Centers are far coarser work units than
// rows (each center expands a Cartesian product), hence the smaller grain.
const (
	centerGrain = 8
	rowGrain    = 256
)

// minParallelGrains is the serial cutoff: an operator goes parallel only
// when it has at least this many grains of work to share out. Below that,
// the partition bookkeeping and result merge cost more than the concurrency
// returns — the operator micro-benchmark showed parallel Fetch *losing* to serial on
// ~thousand-row inputs (6.33ms at 4 workers vs 5.61ms serial) before this
// cutoff existed. Eight grains ≈ 2k rows or 64 centers.
const minParallelGrains = 8

// Runtime carries one query's intra-operator execution resources: the
// worker-pool degree shared by all operators of the query, its budget, and
// its counters. Every operator reads the index through the snapshot's
// decoded per-epoch memos (see reads.go), which outlive the query — a
// Fetch reuses the partner lists an earlier Fetch or WCOJ filled, and so
// does the next query on the epoch. A Runtime is scoped to a single query. All methods
// are safe for concurrent use (a query's operators run one at a time, but
// the partitions of one operator run on many goroutines).
type Runtime struct {
	workers int
	// countIO selects the counted-I/O reference read path (see CountIO).
	countIO bool

	// budget is the query's resource governor (nil = unbudgeted). Set it
	// with SetBudget before the first operator runs.
	budget *Budget
	// rowTarget, when > 0, is a pushed-down result-row limit: the next
	// operators stop producing once the limit is definitively exceeded and
	// truncate their merged output to it (see PushLimit). The executor
	// sets it only for a plan's final step.
	rowTarget int

	ops          atomic.Int64
	parallelOps  atomic.Int64
	fusedFilters atomic.Int64
	tasks        atomic.Int64
	memoHits     atomic.Int64
	memoMisses   atomic.Int64
	centerHits   atomic.Int64
	centerMisses atomic.Int64
	seeks        atomic.Int64
	iterNexts    atomic.Int64
}

// NewRuntime returns a Runtime executing each operator on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS).
func NewRuntime(workers int) *Runtime {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runtime{workers: workers}
}

// serial returns the single-worker runtime backing the package-level
// operator functions.
func serial() *Runtime { return NewRuntime(1) }

// NewFastRuntime is NewRuntime(1). Kept for benchmark/trace.go, which
// predates the single read path and still picks a constructor by tier.
func NewFastRuntime() *Runtime { return NewRuntime(1) }

// CountIO switches the runtime to the counted-I/O reference read path:
// every subcluster and graph code is fetched through the buffer pool per
// access, with no decoded memo in between, so logical page counts are the
// paper's I/O cost. The executor calls it for plans built with
// exec.PlanConfig{NoFastPath: true} and for nothing else; like SetBudget
// it must precede the first operator.
func (rt *Runtime) CountIO() { rt.countIO = true }

// Workers returns the resolved parallelism degree.
func (rt *Runtime) Workers() int {
	if rt.workers <= 0 {
		return 1
	}
	return rt.workers
}

// SetBudget attaches a per-query resource budget to the runtime: operators
// charge intermediate-row allocation to it and check it at their
// cancellation polls and partition-merge points. Call it before the first
// operator runs (it is not synchronised against in-flight operators).
func (rt *Runtime) SetBudget(b *Budget) { rt.budget = b }

// Budget returns the attached budget (nil when unbudgeted).
func (rt *Runtime) Budget() *Budget { return rt.budget }

// PushLimit sets a result-row limit for subsequent operator calls
// (0 clears it). With a limit n, each partition of a row-order-preserving
// operator stops after producing n+1 rows and the merged output truncates
// to n — so the first n rows are exactly the unlimited run's prefix at
// every worker degree, rows beyond the limit are never materialised, and
// the truncation is marked on the runtime's budget only when rows were
// really dropped. HPSJ (which sorts its output globally) materialises its
// pairs and truncates after the merge. The executor calls this only for a
// plan's final operator; like SetBudget it must not race an in-flight
// operator.
func (rt *Runtime) PushLimit(n int) { rt.rowTarget = n }

// newTable is NewTable with the runtime's budget attached, so rows carved
// from the table's arena are charged to the query.
func (rt *Runtime) newTable(cols ...int) *Table {
	t := NewTable(cols...)
	t.budget = rt.budget
	return t
}

// finishResult is the partition-merge checkpoint every operator returns
// through: it applies the pushed-down row limit to the merged output and
// validates its size against the budget's row and byte caps.
func (rt *Runtime) finishResult(r *Result) (*Result, error) {
	if r.truncate(rt.rowTarget) {
		rt.budget.MarkTruncated()
	}
	if err := rt.checkpoint(r.N); err != nil {
		return nil, err
	}
	return r, nil
}

// checkpoint notes an operator's merged output of n rows and validates it
// against the budget's row and byte caps.
func (rt *Runtime) checkpoint(n int) error {
	rt.budget.NoteRows(n)
	if err := rt.budget.CheckRows(n); err != nil {
		return err
	}
	return rt.budget.CheckBytes()
}

// finishOp is finishResult for an operator whose merged output is a table.
func (rt *Runtime) finishOp(t *Table) (*Table, error) {
	r, err := rt.finishResult(t.Result())
	if err != nil {
		return nil, err
	}
	t.Rows = r.Rows
	return t, nil
}

// RuntimeStats are cumulative counters of one Runtime's activity.
type RuntimeStats struct {
	// Ops is the number of operator executions.
	Ops int64
	// ParallelOps counts operators that split into more than one partition.
	ParallelOps int64
	// Tasks is the total number of partition tasks executed (Tasks/Ops is
	// the achieved fan-out; compare against the configured worker degree
	// for utilisation).
	Tasks int64
	// FusedFilters counts the plan steps — Selections and R-semijoin groups
	// on the node a Fetch binds — that ran inside that Fetch as list
	// intersections (see FetchFiltered) instead of as operators of their
	// own; they are not in Ops.
	FusedFilters int64
	// MemoHits/Misses count the runtime's lookups in the snapshot's decoded
	// memos (subclusters and partner-table slots); CenterCacheHits/Misses
	// are the partner-slot share: a hit is a getCenters intersection and
	// subcluster union some earlier operator or query on the epoch already
	// computed. All zero in the counted-I/O reference mode, which bypasses
	// the memos.
	MemoHits          int64
	MemoMisses        int64
	CenterCacheHits   int64
	CenterCacheMisses int64
	// Seeks counts the sorted lists WCOJ opened: one per constraint list
	// entering a leapfrog intersection plus one per partner list looked up
	// for a bound constraint's new value.
	Seeks int64
	// IterNexts counts candidate values the leapfrog intersections
	// produced (values the enumeration advanced through).
	IterNexts int64
}

// Stats snapshots the runtime's counters.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Ops:               rt.ops.Load(),
		ParallelOps:       rt.parallelOps.Load(),
		Tasks:             rt.tasks.Load(),
		FusedFilters:      rt.fusedFilters.Load(),
		MemoHits:          rt.memoHits.Load(),
		MemoMisses:        rt.memoMisses.Load(),
		CenterCacheHits:   rt.centerHits.Load(),
		CenterCacheMisses: rt.centerMisses.Load(),
		Seeks:             rt.seeks.Load(),
		IterNexts:         rt.iterNexts.Load(),
	}
}

// split decides how many partitions n work units of the given grain get:
// one (serial) below the minParallelGrains cutoff, otherwise up to the
// worker degree with every partition holding at least one grain.
func (rt *Runtime) split(n, grain int) int {
	parts := rt.Workers()
	if parts <= 1 {
		return 1
	}
	if grain > 0 {
		if n < minParallelGrains*grain {
			return 1
		}
		if n/grain < parts {
			parts = n / grain
		}
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}

// runParts executes f over parts contiguous ranges of [0, n). Partition
// boundaries are deterministic, so per-partition results concatenated in
// partition order reproduce the serial output exactly. The first failing
// partition cancels the others through the shared sub-context; its error is
// returned (a real error is preferred over the context.Canceled the
// cancellation induces in sibling partitions).
func (rt *Runtime) runParts(ctx context.Context, n, parts int, f func(ctx context.Context, part, lo, hi int) error) error {
	rt.ops.Add(1)
	rt.tasks.Add(int64(parts))
	if parts <= 1 {
		return f(ctx, 0, 0, n)
	}
	rt.parallelOps.Add(1)
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			if err := f(pctx, p, lo, hi); err != nil {
				errs[p] = err
				cancel()
			}
		}(p, lo, hi)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Sorted-set kernels shared by the operators.

// pairKey packs an (x, y) node pair into one ordered uint64, so pair sets
// sort and deduplicate as flat integer slices instead of hash maps.
func pairKey(x, y graph.NodeID) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func pairNodes(k uint64) (x, y graph.NodeID) {
	return graph.NodeID(uint32(k >> 32)), graph.NodeID(uint32(k))
}

// mergeUniqueU64 merges ascending duplicate-free slices into one ascending
// duplicate-free slice (duplicates across inputs are emitted once), by
// repeated pairwise merging.
func mergeUniqueU64(lists [][]uint64) []uint64 {
	for len(lists) > 1 {
		merged := lists[:0]
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				merged = append(merged, lists[i])
				break
			}
			merged = append(merged, mergePairU64(lists[i], lists[i+1]))
		}
		lists = merged
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}

func mergePairU64(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
