package rjoin

// Runtime carries one query's operator execution state: its read path, its
// budget, and its counters. Every operator is one loop on the calling
// goroutine — the paper's Algorithms 1–2 and Eq. 5 as written — and a
// query's operators run one after another; concurrency lives across queries,
// not inside one. Every operator reads the index through the snapshot's
// decoded index and partner tables (see reads.go), which outlive the query
// — a Fetch reuses the partner lists an earlier Fetch filled, and so does
// the next query on the epoch. A Runtime is scoped to a single query and is not
// safe for concurrent use; its zero value is ready to use.
type Runtime struct {
	// countIO selects the counted-I/O reference read path (see CountIO).
	countIO bool

	// budget is the query's resource governor (nil = unbudgeted). Set it
	// with SetBudget before the first operator runs.
	budget *Budget
	// rowTarget, when > 0, is a pushed-down result-row limit: the next
	// operators stop producing once the limit is definitively exceeded and
	// truncate their output to it (see PushLimit). The executor sets it only
	// for a plan's final step.
	rowTarget int

	ops          int64
	fusedFilters int64
	factorised   int64
	centerHits   int64
	centerMisses int64
}

// NewRuntime returns a fresh Runtime; its argument, once the operator
// worker degree, is ignored. NewFastRuntime is the same. Both are kept for
// benchmark/trace.go until ROADMAP 2(c); other callers use new(Runtime).
func NewRuntime(int) *Runtime { return new(Runtime) }

// NewFastRuntime returns a fresh Runtime. See NewRuntime.
func NewFastRuntime() *Runtime { return new(Runtime) }

// Workers returns 1: every operator runs on the calling goroutine. Kept for
// benchmark/trace.go, like NewRuntime.
func (rt *Runtime) Workers() int { return 1 }

// CountIO switches the runtime to the counted-I/O reference read path:
// every subcluster and graph code is fetched through the buffer pool per
// access, with no decoded index in between, so logical page counts are the
// paper's I/O cost. The executor calls it for plans built with
// exec.PlanConfig{NoFastPath: true} and for nothing else; like SetBudget
// it must precede the first operator.
func (rt *Runtime) CountIO() { rt.countIO = true }

// SetBudget attaches a per-query resource budget to the runtime: operators
// charge intermediate-row allocation to it and check it at their
// cancellation polls and when they finish. Call it before the first
// operator runs.
func (rt *Runtime) SetBudget(b *Budget) { rt.budget = b }

// Budget returns the attached budget (nil when unbudgeted).
func (rt *Runtime) Budget() *Budget { return rt.budget }

// PushLimit sets a result-row limit for subsequent operator calls
// (0 clears it). With a limit n, a row-order-preserving operator stops
// once it has produced n+1 rows — proof that rows were dropped — and
// truncates its output to n, so the first n rows are exactly the unlimited
// run's prefix, rows beyond the limit are never materialised, and the
// truncation is marked on the runtime's budget only when rows were really
// dropped. HPSJ (which sorts its output) materialises its pairs and
// truncates after the sort. The executor calls this only for a plan's
// final operator; like SetBudget it must precede that operator.
func (rt *Runtime) PushLimit(n int) { rt.rowTarget = n }

// pastLimit reports whether n produced rows exceed the pushed-down limit:
// limit+1 rows prove truncation, so an operator stops there.
func (rt *Runtime) pastLimit(n int) bool { return rt.rowTarget > 0 && n > rt.rowTarget }

// finishResult is the checkpoint every operator returns through: it
// applies the pushed-down row limit to the output and validates its size
// against the budget's row and byte caps.
func (rt *Runtime) finishResult(r *Result) (*Result, error) {
	if r.truncate(rt.rowTarget) {
		rt.budget.MarkTruncated()
	}
	if err := rt.checkpoint(r.N); err != nil {
		return nil, err
	}
	return r, nil
}

// checkpoint notes an operator's output of n rows and validates it against
// the budget's row and byte caps.
func (rt *Runtime) checkpoint(n int) error {
	rt.budget.NoteRows(n)
	if err := rt.budget.CheckRows(n); err != nil {
		return err
	}
	return rt.budget.CheckBytes()
}

// RuntimeStats are cumulative counters of one Runtime's activity.
type RuntimeStats struct {
	// Ops is the number of operator executions.
	Ops int64
	// ParallelOps is 0 and Tasks equals Ops: operators no longer split into
	// partitions. Both are kept for benchmark/trace.go, like NewRuntime.
	ParallelOps int64
	Tasks       int64
	// FusedFilters counts the plan steps — Selections and R-semijoin groups
	// on the node a Fetch binds — that ran inside that Fetch as list
	// intersections (see FetchFiltered) instead of as operators of their
	// own; they are not in Ops.
	FusedFilters int64
	// FactorisedSteps counts the Fetches that left their rows factorised
	// (see FetchResult): one more expanded column of the Result each,
	// written out only if a later step reads rows.
	FactorisedSteps int64
	// CenterCacheHits/Misses count the runtime's partner-table slot
	// lookups: a hit is a getCenters intersection and subcluster union some
	// earlier operator or query on the epoch already computed. Both zero in
	// the counted-I/O reference mode, which bypasses the tables.
	CenterCacheHits   int64
	CenterCacheMisses int64
}

// Stats snapshots the runtime's counters.
func (rt *Runtime) Stats() RuntimeStats {
	return RuntimeStats{
		Ops:               rt.ops,
		Tasks:             rt.ops,
		FusedFilters:      rt.fusedFilters,
		FactorisedSteps:   rt.factorised,
		CenterCacheHits:   rt.centerHits,
		CenterCacheMisses: rt.centerMisses,
	}
}
