// Package exec evaluates optimized plans against a graph database, binding
// the optimizer's steps to the R-join/R-semijoin operators. It also
// provides a naive backtracking matcher used as ground truth and as a
// measurable worst-case baseline.
package exec

import (
	"context"
	"fmt"
	"slices"
	"time"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/storage"
)

// StepTrace records one executed plan step for EXPLAIN-style output.
type StepTrace struct {
	Step optimizer.Step
	// Rows is the temporal table size after the step.
	Rows int
	// IO is the logical page I/O the step performed (including its spill).
	// Under concurrent execution the counter is shared, so traffic from
	// overlapping queries may be attributed to the step.
	IO int64
	// ElapsedMS is the step's wall time in milliseconds.
	ElapsedMS float64
	// CenterCacheHits counts the step's partner-table slot hits: rows whose
	// getCenters intersection and subcluster union an earlier operator or
	// query on the epoch had already computed (see rjoin.RuntimeStats).
	CenterCacheHits int64
	// Seeks is always 0: it counted the retired multiway join's list
	// seeks. It is kept for benchmark/trace.go until ROADMAP 2(c).
	Seeks int64
	// Fused marks a step that did not run as an operator of its own: a
	// Selection or R-semijoin group on the node the preceding Fetch binds,
	// which that Fetch applied to its partner lists (rjoin.FetchFiltered).
	// Rows is still the exact count the step left; ElapsedMS, IO and the
	// counters are zero, the group's being on the Fetch's entry — whose
	// Rows is the Fetch's logical output, the rows it would have written
	// had the filters run after it. Reference plans never fuse.
	Fused bool
	// Factorised marks a Fetch of the plan's factorised tail (see Run): it
	// kept its partner lists as one more expanded column of the result
	// instead of writing its rows out. Rows is still the logical row count
	// the step left. Reference plans never factorise.
	Factorised bool
}

// RunConfig tunes one plan execution.
type RunConfig struct {
	// Runtime, when non-nil, supplies a preconstructed operator runtime;
	// callers use this to read the runtime's counters after the run.
	Runtime *rjoin.Runtime
	// Budget, when non-nil, is the query's resource governor: its
	// ResultRows limit is pushed into the plan's final operator (the run
	// returns a truncated prefix, with Budget.Truncated set, instead of
	// materialising the full result), its MaxTableRows/MaxBytes caps fail
	// the run with the typed rjoin.ErrRowLimit/rjoin.ErrBudgetExceeded,
	// and its counters (Bytes, PeakRows) report what the run used.
	// Deadlines stay on the context.
	Budget *rjoin.Budget
}

// runtime returns the operator runtime for one plan execution.
func (cfg RunConfig) runtime() *rjoin.Runtime {
	rt := cfg.Runtime
	if rt == nil {
		rt = new(rjoin.Runtime)
	}
	if cfg.Budget != nil {
		rt.SetBudget(cfg.Budget)
	}
	return rt
}

// RunSnapConfig is Run without a trace, with the result written out as a
// table: one column per pattern node in pattern-node order, rows in the
// plan's deterministic order. Kept, under this name, for benchmark/ until
// ROADMAP 2(c); the server encodes Run's Result directly.
func RunSnapConfig(ctx context.Context, s *gdb.Snap, plan *optimizer.Plan, cfg RunConfig) (*rjoin.Table, error) {
	t, _, err := RunSnapWithTraceConfig(ctx, s, plan, false, cfg)
	return t, err
}

// RunSnapWithTraceConfig is Run followed by Result.Table in pattern-node
// order. Kept for benchmark/ like RunSnapConfig.
func RunSnapWithTraceConfig(ctx context.Context, db *gdb.Snap, plan *optimizer.Plan, trace bool, cfg RunConfig) (*rjoin.Table, []StepTrace, error) {
	res, traces, err := Run(ctx, db, plan, trace, cfg)
	if err != nil {
		return nil, nil, err
	}
	t, err := res.Table(patternOrder(plan))
	return t, traces, err
}

// patternOrder lists plan's pattern nodes in pattern order, the column
// order tables are reported in.
func patternOrder(plan *optimizer.Plan) []int {
	nodes := make([]int, plan.Binding.Pattern.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// Run executes a plan against a pinned snapshot epoch and returns its
// result, with per-step actual row counts, I/O and elapsed time when trace
// is true. The result's columns stand in the order the plan bound them and
// the plan's factorised tail is left as products (see tailStart and
// rjoin.Result); callers choose the column order when they consume it.
// Execution is abandoned mid-operator (with ctx.Err()) once ctx is
// cancelled or past its deadline. Callers pin once and pass the same
// snapshot to BuildPlanSnapConfig and here, so a query plans and executes
// on one index version — concurrent edge inserts publish new epochs
// without blocking or tearing the run. The steps run one after another on
// the calling goroutine and share one rjoin.Runtime — its budget and
// counters.
func Run(ctx context.Context, db *gdb.Snap, plan *optimizer.Plan, trace bool, cfg RunConfig) (*rjoin.Result, []StepTrace, error) {
	rt := cfg.runtime()
	b := plan.Binding
	// The plan, not the caller's runtime, chooses the read path. By default
	// every operator reads the snapshot's decoded index and the
	// temporal table stays in memory between steps. A reference plan
	// (PlanConfig.NoFastPath) instead runs the paper's counted-I/O model:
	// every index read goes through the buffer pool, and intermediate
	// results spill through a scratch heap private to this run — its pages
	// share the database's pool, so their size is charged as I/O as in the
	// paper's disk-resident executor, and Release recycles them afterwards.
	// The spill is I/O-charged but never budget-charged, so rows, order and
	// all budget/limit behaviour are identical in both modes.
	var scratch *storage.HeapFile
	if plan.Reference {
		rt.CountIO()
		scratch = db.NewScratchHeap()
		defer scratch.Release()
	}
	bdg := cfg.Budget
	var traces []StepTrace
	// t is the temporal table between steps, flat (see rjoin.Result); each
	// operator consumes it and returns the next. From step tail on it is
	// factorised: each Fetch adds one expanded column instead of rows.
	var t *rjoin.Result
	last, tail := len(plan.Steps)-1, tailStart(plan)
	for si := 0; si < len(plan.Steps); si++ {
		s := plan.Steps[si]
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// end is the last plan step this iteration executes: si itself, or —
		// when a Fetch absorbs the filters that follow it — the last of them.
		end := si
		// Limit pushdown: the plan's final operator stops producing once
		// the result-row limit is exceeded and truncates its output, so
		// rows past the limit are never materialised. For a
		// JoinFilterFetch the limit is armed only after its Filter phase —
		// truncating the filtered input would drop rows the Fetch still
		// needs.
		pushLimit := func() {
			if end == last && bdg != nil && bdg.ResultRows > 0 {
				rt.PushLimit(bdg.ResultRows)
			}
		}
		// counts, after a Fetch, holds its logical row count and the count
		// after each step it absorbed.
		var counts []int
		// A Fetch takes over the filters that follow it on the node it binds
		// (absorbed), and a group of the factorised tail hands its expansion
		// up as the operator resolved it, not written out. A reference plan
		// writes every step out and runs every step on its own: its spill and
		// hash-dedup projection are what the paper's executor does and what
		// the differential tests hold the fused, factorised result against.
		fetch := func() (err error) {
			cond := b.Conds[s.Edges[0]]
			if plan.Reference {
				pushLimit()
				t, err = rt.Fetch(ctx, db, t, cond)
				return err
			}
			filters := absorbed(plan, si, fetchNode(cond, t.HasCol(cond.ToNode)))
			end = si + len(filters)
			pushLimit()
			t, counts, err = rt.FetchFiltered(ctx, db, t, cond, filters, si >= tail)
			return err
		}
		stepStart := time.Now()
		ioBefore := db.IOStats().Logical()
		statsBefore := rt.Stats()
		var err error
		switch s.Kind {
		case optimizer.StepHPSJ:
			if t != nil {
				return nil, nil, fmt.Errorf("exec: step %d: HPSJ mid-plan", si+1)
			}
			pushLimit()
			t, err = rt.HPSJ(ctx, db, b.Conds[s.Edges[0]])
		case optimizer.StepSemijoinGroup:
			if t == nil {
				t = extentTable(db.Graph(), b, s.Node)
				if err := bdg.ChargeBytes(int64(t.Len()) * 4); err != nil {
					return nil, nil, fmt.Errorf("exec: step %d (%v): %w", si+1, s.Kind, err)
				}
			}
			pushLimit()
			t, err = rt.FilterGroup(ctx, db, t, stepConds(b, s), s.Node, s.OutSide)
		case optimizer.StepFetch:
			t, err = requireTable(t, si)
			if err == nil {
				err = fetch()
			}
		case optimizer.StepJoinFilterFetch:
			t, err = requireTable(t, si)
			if err == nil {
				t, err = rt.Filter(ctx, db, t, b.Conds[s.Edges[0]])
			}
			if err == nil {
				err = fetch()
			}
		case optimizer.StepSelection:
			t, err = requireTable(t, si)
			if err == nil {
				pushLimit()
				t, err = rt.Selection(ctx, db, t, b.Conds[s.Edges[0]])
			}
		default:
			err = fmt.Errorf("exec: unknown step kind %v", s.Kind)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("exec: step %d (%v): %w", si+1, s.Kind, err)
		}
		rows := t.Len()
		// Per-step budget checkpoint: operators check when they finish;
		// this additionally covers tables the executor builds
		// itself (extent tables) and keeps the peak-rows statistic exact.
		bdg.NoteRows(rows)
		if err := bdg.CheckRows(rows); err != nil {
			return nil, nil, fmt.Errorf("exec: step %d (%v): %w", si+1, s.Kind, err)
		}
		if err := bdg.CheckBytes(); err != nil {
			return nil, nil, fmt.Errorf("exec: step %d (%v): %w", si+1, s.Kind, err)
		}
		// Reference mode materialises the temporal table through the
		// storage engine: the paper's executor keeps intermediate results
		// in disk-resident tables, so their size is part of the measured
		// I/O cost.
		if plan.Reference {
			if err := spill(scratch, t); err != nil {
				return nil, nil, fmt.Errorf("exec: step %d (%v): spill: %w", si+1, s.Kind, err)
			}
		}
		if trace {
			statsAfter := rt.Stats()
			st := StepTrace{
				Step:            s,
				Rows:            rows,
				IO:              db.IOStats().Logical() - ioBefore,
				ElapsedMS:       float64(time.Since(stepStart).Microseconds()) / 1000,
				CenterCacheHits: statsAfter.CenterCacheHits - statsBefore.CenterCacheHits,
				Factorised:      si >= tail,
			}
			// A Fetch that absorbed steps reports its logical output and
			// carries the group's time; each absorbed step keeps its own
			// entry with the row count it left (the last one's being the
			// group's output, after any limit).
			if end > si {
				st.Rows, counts[end-si] = counts[0], rows
			}
			traces = append(traces, st)
			for k := si + 1; k <= end; k++ {
				traces = append(traces, StepTrace{
					Step: plan.Steps[k], Rows: counts[k-si], Fused: true,
				})
			}
		}
		si = end
	}
	if t == nil {
		return nil, nil, fmt.Errorf("exec: empty plan")
	}
	// Every operator preserves pairwise-distinct rows (HPSJ emits distinct
	// pairs, Fetch extends distinct rows by distinct nodes,
	// filters and selections take subsets) and the final table binds each
	// pattern node exactly once, so the dedup projection is a pure column
	// permutation, which the result's consumer applies as it writes.
	// Reference mode keeps the hashing Project, which the differential
	// tests hold that against.
	if plan.Reference {
		out, err := t.Project(patternOrder(plan))
		if err != nil {
			return nil, nil, err
		}
		return out, traces, nil
	}
	return t, traces, nil
}

// spill writes a temporal table to the query's scratch heap and reads it
// back, replacing the table's rows with the materialised copy. With the
// paper's 1 MB buffer pool, tables larger than the pool incur real
// evictions and re-reads — charging intermediate-result size as I/O exactly
// as a disk-based executor does.
func spill(scratch *storage.HeapFile, t *rjoin.Result) error {
	if t == nil || t.Len() == 0 {
		return nil
	}
	rid, err := scratch.Insert(t.EncodeRows())
	if err != nil {
		return err
	}
	data, err := scratch.Read(rid)
	if err != nil {
		return err
	}
	return t.DecodeRows(data)
}

// stepConds resolves a step's pattern edges to their conditions.
func stepConds(b *optimizer.Binding, s optimizer.Step) []rjoin.Cond {
	conds := make([]rjoin.Cond, len(s.Edges))
	for i, e := range s.Edges {
		conds[i] = b.Conds[e]
	}
	return conds
}

// absorbedSteps returns how many of the steps directly following step si
// the Fetch there, which binds node, takes over from the plan: the maximal
// run of steps that constrain only that node — a Selection with it as one
// endpoint (the other is bound, or the step would not be a Selection), an
// R-semijoin group on it. Such a step reads nothing of the Fetch's output
// but the new column, and its keep-test is a membership test of the new
// value — in a partner list for a Selection, in a gdb.NodeSet projection
// for a semijoin group — so the Fetch applies it to its partner lists
// before any row exists (rjoin.FetchFiltered). The steps stay in plan
// order, which is what lets the trace report the row count each one left.
// A filter on an older column is not absorbed: it would have to be
// evaluated per input row, which is the operator it already is.
func absorbedSteps(plan *optimizer.Plan, si, node int) int {
	n := 0
	for _, s := range plan.Steps[si+1:] {
		c := plan.Binding.Conds[s.Edges[0]]
		if s.Kind == optimizer.StepSelection && (c.FromNode == node || c.ToNode == node) ||
			s.Kind == optimizer.StepSemijoinGroup && s.Node == node {
			n++
			continue
		}
		break
	}
	return n
}

// absorbed returns the filters of the steps the Fetch at step si, which
// binds node, takes over (see absorbedSteps).
func absorbed(plan *optimizer.Plan, si, node int) []rjoin.NodeFilter {
	b := plan.Binding
	var filters []rjoin.NodeFilter
	for _, s := range plan.Steps[si+1 : si+1+absorbedSteps(plan, si, node)] {
		f := rjoin.NodeFilter{Conds: stepConds(b, s)}
		if s.Kind == optimizer.StepSemijoinGroup {
			f.Semijoin, f.OutSide = true, s.OutSide
		}
		filters = append(filters, f)
	}
	return filters
}

// fetchNode returns the node a Fetch of cond binds: the endpoint that is
// not yet bound, given whether its To endpoint is.
func fetchNode(cond rjoin.Cond, toBound bool) int {
	if toBound {
		return cond.FromNode
	}
	return cond.ToNode
}

// other returns the endpoint of cond that is not node.
func other(cond rjoin.Cond, node int) int {
	if cond.FromNode == node {
		return cond.ToNode
	}
	return cond.FromNode
}

// tailStart returns the first step of plan's factorised tail, or
// len(plan.Steps) when it has none. The tail is the longest run of Fetch
// groups — a Fetch and the filters it absorbs — that ends the plan and in
// which every group reads only nodes bound before the run: the Fetch's
// bound node and each absorbed Selection's other endpoint. The table that
// enters the run is the prefix. Every row a prefix row stands for then
// expands by the same partner list, cut by the same filters, so each Fetch
// of the run adds one expanded column of K lists per prefix row
// (rjoin.FetchResult) instead of writing its product out. A JoinFilterFetch
// may open the run, its Filter running on the prefix; Selections and
// semijoin groups a Fetch did not absorb end it, as does a reference plan,
// which writes every step out. Node sets are bitmasks, so a query pays no
// allocation for this; a pattern of more than 64 nodes (no planner accepts
// one) has no tail.
func tailStart(plan *optimizer.Plan) int {
	steps, b := plan.Steps, plan.Binding
	if plan.Reference || b.Pattern.NumNodes() > 64 {
		return len(steps)
	}
	// A group is a step, or a Fetch and the steps it absorbs: where it
	// starts, the node it binds (-1 for anything but a Fetch) and the nodes
	// it reads.
	type group struct {
		start, node int
		reads       uint64
		opens       bool // a JoinFilterFetch: only the run's first group
	}
	var buf [32]group
	groups := buf[:0]
	var bound uint64
	for si := 0; si < len(steps); si++ {
		s := steps[si]
		g := group{start: si, node: -1}
		switch s.Kind {
		case optimizer.StepHPSJ:
			c := b.Conds[s.Edges[0]]
			bound |= 1<<c.FromNode | 1<<c.ToNode
		case optimizer.StepSemijoinGroup:
			bound |= 1 << s.Node
		case optimizer.StepFetch, optimizer.StepJoinFilterFetch:
			c := b.Conds[s.Edges[0]]
			g.node, g.opens = fetchNode(c, bound>>c.ToNode&1 != 0), s.Kind == optimizer.StepJoinFilterFetch
			g.reads = 1 << other(c, g.node)
			k := absorbedSteps(plan, si, g.node)
			for _, f := range steps[si+1 : si+1+k] {
				if f.Kind == optimizer.StepSelection {
					g.reads |= 1 << other(b.Conds[f.Edges[0]], g.node)
				}
			}
			bound |= 1 << g.node
			si += k
		}
		groups = append(groups, g)
	}
	start, read := len(steps), uint64(0)
	for gi := len(groups) - 1; gi >= 0; gi-- {
		g := groups[gi]
		if g.node < 0 || read>>g.node&1 != 0 {
			break
		}
		start, read = g.start, read|g.reads
		if g.opens {
			break
		}
	}
	return start
}

func requireTable(t *rjoin.Result, si int) (*rjoin.Result, error) {
	if t == nil {
		return nil, fmt.Errorf("exec: step %d needs a temporal table", si+1)
	}
	return t, nil
}

// extentTable builds the single-column temporal table holding ext(X) for a
// pattern node (the base table a leading Filter-move scans): one copy of
// the extent, which the filter then compacts in place — the graph's own
// extent is shared and must not be written.
func extentTable(g *graph.Graph, b *optimizer.Binding, node int) *rjoin.Result {
	ext := slices.Clone(g.Extent(b.Labels[node]))
	return &rjoin.Result{Cols: []int{node}, Data: ext, N: len(ext)}
}

// Algorithm selects a planner for Query.
type Algorithm int

const (
	// DPS interleaves R-joins with R-semijoins (Section 4.2). It is the
	// zero value, so an unset Algorithm field means the default planner.
	DPS Algorithm = iota
	// DP is R-join order selection only (Section 4.1).
	DP
)

func (a Algorithm) String() string {
	if a == DP {
		return "DP"
	}
	return "DPS"
}

// ParseAlgorithm maps the common spellings ("dp", "dps") to an Algorithm;
// empty selects the default (DPS).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "dps", "DPS":
		return DPS, nil
	case "dp", "DP":
		return DP, nil
	default:
		return DPS, fmt.Errorf("exec: unknown algorithm %q (want dp or dps)", s)
	}
}

// PlanConfig tunes plan construction.
type PlanConfig struct {
	// NoFastPath builds a reference plan: the executor runs it in the
	// paper's counted-I/O mode — index reads through the buffer pool per access, a scratch-heap
	// spill after every step, a hash-dedup final projection — instead of
	// the decoded in-memory read path. It is the differential tests'
	// reference and the measurement mode of the paper experiments
	// (EXPERIMENTS.md Fig. 5–7); no served request can reach it.
	NoFastPath bool
}

// BuildPlanSnapConfig binds a pattern against a pinned snapshot epoch and
// optimizes it with the chosen planner under default cost parameters. It is
// the single planning entry point shared by Query, the Engine and the query
// server's plan cache.
func BuildPlanSnapConfig(s *gdb.Snap, p *pattern.Pattern, algo Algorithm, pc PlanConfig) (*optimizer.Plan, error) {
	b, err := optimizer.Bind(s, p)
	if err != nil {
		return nil, err
	}
	params := optimizer.DefaultCostParams()
	var plan *optimizer.Plan
	if algo == DP {
		plan, err = optimizer.OptimizeDP(b, params)
	} else {
		plan, err = optimizer.OptimizeDPS(b, params)
	}
	if err != nil {
		return nil, err
	}
	plan.Reference = pc.NoFastPath
	return plan, nil
}

// Query binds, optimizes (with default cost parameters), and runs a pattern
// on one pinned snapshot epoch, in one call.
func Query(db *gdb.DB, p *pattern.Pattern, algo Algorithm) (*rjoin.Table, error) {
	s, release := db.Pin()
	defer release()
	plan, err := BuildPlanSnapConfig(s, p, algo, PlanConfig{})
	if err != nil {
		return nil, err
	}
	return RunSnapConfig(context.Background(), s, plan, RunConfig{})
}
