package rjoin

import (
	"context"
	"fmt"
	"slices"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// cancelStride is how many work units (rows emitted or scanned) an operator
// processes between context polls: frequent enough that queries abandon
// work promptly on deadline or cancellation, rare enough to stay off the
// per-row hot path.
const cancelStride = 1024

// cancelCheck polls its context — and, when the query is budgeted, the
// byte budget — every cancelStride work units, counting down instead of
// taking a modulo so the per-tick cost is one decrement.
type cancelCheck struct {
	ctx  context.Context
	b    *Budget
	left int
}

func newCancelCheck(ctx context.Context) cancelCheck {
	return cancelCheck{ctx: ctx, left: cancelStride}
}

// check is newCancelCheck carrying the runtime's budget, so an operator
// that blows the byte budget fails at its next poll.
func (rt *Runtime) check(ctx context.Context) cancelCheck {
	return cancelCheck{ctx: ctx, b: rt.budget, left: cancelStride}
}

func (c *cancelCheck) tick() error { return c.tickN(1) }

// tickN charges n work units at once (e.g. a whole center's Cartesian
// product, or a row plus everything it emitted), polling the context at
// most once per stride.
func (c *cancelCheck) tickN(n int) error {
	c.left -= n
	if c.left > 0 {
		return nil
	}
	c.left = cancelStride
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.b.CheckBytes()
}

// Package-level operator functions run on a fresh, unbudgeted Runtime.

// HPSJ processes an R-join between two base tables (Algorithm 1). See
// Runtime.HPSJ.
func HPSJ(ctx context.Context, db *gdb.Snap, c Cond) (*Result, error) {
	return new(Runtime).HPSJ(ctx, db, c)
}

// Filter is the R-semijoin (Algorithm 2, Filter). See Runtime.Filter.
func Filter(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	return new(Runtime).Filter(ctx, db, t, c)
}

// FilterGroup applies a group of R-semijoins sharing one bound column and
// code side. See Runtime.FilterGroup.
func FilterGroup(ctx context.Context, db *gdb.Snap, t *Result, conds []Cond, node int, outSide bool) (*Result, error) {
	return new(Runtime).FilterGroup(ctx, db, t, conds, node, outSide)
}

// Fetch completes an HPSJ+ R-join (Algorithm 2, Fetch). See Runtime.Fetch.
func Fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	return new(Runtime).Fetch(ctx, db, t, c)
}

// Selection processes a self R-join (Eq. 5). See Runtime.Selection.
func Selection(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	return new(Runtime).Selection(ctx, db, t, c)
}

// pairKey packs an (x, y) node pair into one ordered uint64, so HPSJ's
// pair set sorts and deduplicates as a flat integer slice instead of a
// hash map.
func pairKey(x, y graph.NodeID) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func pairNodes(k uint64) (x, y graph.NodeID) {
	return graph.NodeID(uint32(k >> 32)), graph.NodeID(uint32(k))
}

// HPSJ processes an R-join between two base tables (Algorithm 1): for every
// center w ∈ W(X, Y) it emits getF(w, X) × getT(w, Y). Pairs covered by
// several centers are deduplicated by one sort and compaction of the packed
// pair keys, so the result is ordered by (from, to). Base tables are never
// touched — the answer comes entirely from the W-table and the
// cluster-based index. The sorted pairs are written straight into the
// output's flat data.
func (rt *Runtime) HPSJ(ctx context.Context, db *gdb.Snap, c Cond) (*Result, error) {
	ws, err := db.Centers(c.FromLabel, c.ToLabel)
	if err != nil {
		return nil, err
	}
	rt.ops++
	cc := rt.check(ctx)
	rd := rt.open(db)
	defer rd.done()
	var pairs []uint64
	for _, w := range ws {
		xs, err := rd.getF(w, c.FromLabel)
		if err != nil {
			return nil, err
		}
		if len(xs) == 0 {
			continue
		}
		ys, err := rd.getT(w, c.ToLabel)
		if err != nil {
			return nil, err
		}
		// Pre-flight the center's cross product against the budget: a
		// blow-up fails here, before the pairs are materialised.
		if err := rt.budget.ChargeBytes(int64(len(xs)) * int64(len(ys)) * 8); err != nil {
			return nil, err
		}
		if err := rt.budget.CheckRows(len(pairs) + len(xs)*len(ys)); err != nil {
			return nil, err
		}
		if err := cc.tickN(len(xs) * len(ys)); err != nil {
			return nil, err
		}
		for _, x := range xs {
			for _, y := range ys {
				pairs = append(pairs, pairKey(x, y))
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	// The pairs are sorted and distinct, so under a pushed-down limit their
	// prefix is already the answer's prefix — rows beyond it are never built.
	if rt.pastLimit(len(pairs)) {
		pairs = pairs[:rt.rowTarget]
		rt.budget.MarkTruncated()
	}
	// The rows are charged at their logical size, 4 bytes per cell.
	rt.budget.AddBytes(int64(len(pairs)) * 2 * nodeIDBytes)
	out := &Result{Cols: []int{c.FromNode, c.ToNode}, N: len(pairs)}
	out.Data = make([]graph.NodeID, 2*len(pairs))
	for i, k := range pairs {
		out.Data[2*i], out.Data[2*i+1] = pairNodes(k)
	}
	return rt.finishResult(out)
}

// boundSide resolves which side of cond is bound in t. Exactly one side
// must be bound (use Selection when both are).
func boundSide(t *Result, c Cond) (boundNode int, forward bool, err error) {
	hasFrom, hasTo := t.HasCol(c.FromNode), t.HasCol(c.ToNode)
	switch {
	case hasFrom && hasTo:
		return 0, false, fmt.Errorf("rjoin: condition %v has both sides bound in %v (use Selection)", c, t.Cols)
	case hasFrom:
		return c.FromNode, true, nil
	case hasTo:
		return c.ToNode, false, nil
	default:
		return 0, false, fmt.Errorf("rjoin: condition %v has no side bound in %v", c, t.Cols)
	}
}

// Filter is the R-semijoin (Algorithm 2, Filter; Eq. 7/8): it keeps the
// rows of t whose bound value can join some node of the other side's base
// table, determined from the W-table and graph codes alone. It is a
// one-condition FilterGroup on the condition's bound side.
func (rt *Runtime) Filter(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	node, forward, err := boundSide(t, c)
	if err != nil {
		return nil, err
	}
	return rt.FilterGroup(ctx, db, t, []Cond{c}, node, forward)
}

// FilterGroup applies a group of R-semijoins that all read the same code
// side of the same bound column in one scan of t (Remark 3.1): node is the
// bound pattern node and outSide selects out-codes (conditions node→Y)
// versus in-codes (conditions X→node). A row survives only if it passes
// every condition. It accepts conditions whose other endpoint is already
// bound — the semijoin then still prunes soundly against the other side's
// base table, with the residual condition left to a later Selection. Rows
// keep their input order; t is consumed (see compact).
func (rt *Runtime) FilterGroup(ctx context.Context, db *gdb.Snap, t *Result, conds []Cond, node int, outSide bool) (*Result, error) {
	if len(conds) == 0 {
		return t, nil
	}
	if err := plain(t); err != nil {
		return nil, err
	}
	col := t.ColIndex(node)
	if col < 0 {
		return nil, fmt.Errorf("rjoin: filter group on unbound node %d in %v", node, t.Cols)
	}
	g := &semijoinGroup{conds: conds, outSide: outSide, wss: make([][]graph.NodeID, len(conds))}
	for i, c := range conds {
		if err := incident(c, node, outSide); err != nil {
			return nil, err
		}
		ws, err := db.Centers(c.FromLabel, c.ToLabel)
		if err != nil {
			return nil, err
		}
		if len(ws) == 0 {
			// Some condition can never be satisfied: the group empties t.
			t.Data, t.N = t.Data[:0], 0
			return t, nil
		}
		g.wss[i] = ws
	}
	rd := rt.open(db)
	defer rd.done()
	if err := rd.prepare(g); err != nil {
		return nil, err
	}
	rt.ops++
	cc := rt.check(ctx)
	return rt.compact(t, func(row []graph.NodeID) (bool, error) {
		if err := cc.tick(); err != nil {
			return false, err
		}
		return rd.semijoin(g, row[col])
	})
}

// compact is the loop behind FilterGroup and Selection: it keeps the rows
// of t that keep accepts, in input order, writing each survivor over t's
// own data — row k lands at an index no greater than the one it was read
// from, the rule gdb.IntersectTo and NodeSet.FilterTo follow in place — so
// a filter allocates nothing. It stops at limit+1 survivors and returns t,
// cut to them, through the operator checkpoint.
func (rt *Runtime) compact(t *Result, keep func(row []graph.NodeID) (bool, error)) (*Result, error) {
	w, kept := t.Width(), 0
	for i := 0; i < t.N; i++ {
		row := t.Data[i*w : (i+1)*w]
		ok, err := keep(row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if kept < i {
			copy(t.Data[kept*w:], row)
		}
		kept++
		if rt.pastLimit(kept) {
			break
		}
	}
	t.Data, t.N = t.Data[:kept*w], kept
	return rt.finishResult(t)
}

// plain refuses a factorised Result as an operator's input: only a plan's
// last Fetch leaves one, and nothing runs after it.
func plain(t *Result) error {
	if t.Exp != nil {
		return fmt.Errorf("rjoin: operator input over %v is factorised", t.Cols)
	}
	return nil
}

// incident checks that c is read from node's given code side: node→Y for
// out-codes, X→node for in-codes.
func incident(c Cond, node int, outSide bool) error {
	if outSide && c.FromNode != node || !outSide && c.ToNode != node {
		return fmt.Errorf("rjoin: condition %v not incident on node %d's %s side", c, node, side(outSide))
	}
	return nil
}

func side(out bool) string {
	if out {
		return "out"
	}
	return "in"
}

// Fetch completes an HPSJ+ R-join (Algorithm 2, Fetch): for each row of t
// it looks up the bound value's partners — every matching node from its
// centers' T-subclusters (forward) or F-subclusters (reverse) — and expands
// the row with each. The new pattern-node column is appended; each row's
// expansion nodes are emitted in ascending order (the sorted-set union of
// the subcluster lists), so rows come in input order × ascending partners.
// Rows whose center set is empty produce nothing, so Fetch subsumes Filter;
// running Filter first simply prunes earlier. The output is sized exactly
// before it is written (see expand): one pointer-free slice of N×w cells.
func (rt *Runtime) Fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	res, _, err := rt.fetch(ctx, db, t, c, nil, true)
	return res, err
}

// FetchResult is Fetch for a plan's last step: the same rows in the same
// order, handed up as the factorised Result expand resolved — t's rows and
// one shared partner list each — instead of being written out. Limit,
// budget and cancellation behave as in Fetch: the same logical bytes and
// rows are charged at the same points, so every counter and typed kill is
// the materialising run's. The Result's prefix rows are t's data, shared.
func (rt *Runtime) FetchResult(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	res, _, err := rt.fetch(ctx, db, t, c, nil, false)
	return res, err
}

// NodeFilter is a plan step a Fetch absorbs (see FetchFiltered): a filter
// that constrains only the node the Fetch binds.
type NodeFilter struct {
	// Conds holds a Selection's one condition — one endpoint is the Fetch's
	// new node, the other is bound in the Fetch's input — or, with Semijoin
	// set, the conditions of an R-semijoin group on the new node, all read
	// from its OutSide code side (see FilterGroup).
	Conds    []Cond
	Semijoin bool
	OutSide  bool
}

// FetchFiltered is Fetch followed by the given filters on the node it
// binds — Selections between that node and a bound column (Eq. 5),
// R-semijoin groups on it (Eq. 6, Remark 3.1) — run as one operator: every
// such filter is membership of the new value in a set (a Selection's is the
// bound endpoint's partner list under its condition, exactly the nodes of
// the new label that endpoint reaches or is reached from; a semijoin
// condition's is its distinct projection), so per input row the Fetch's
// partner list is cut down by each filter, in the order given — intersected
// with a Selection's list, tested bit by bit against a projection — and
// only the survivors ever become rows. The output is
// what Fetch, then Selection/FilterGroup per filter, returns: the same rows
// in the same order (input order × ascending survivors).
//
// The budget is charged the Fetch's logical output — every partner of
// every input row, whether or not it survives — at the points the unfused
// Fetch charges it, so Bytes(), PeakRows() and every typed kill are the
// step-by-step run's. A pushed-down limit applies to the survivors: the
// operator stops intersecting once it holds limit+1 of them but keeps
// accounting for the rest of its input (the unfused Fetch was not the last
// step and ran unlimited).
//
// With no filters this is Fetch, or with last set FetchResult. With last
// set the group ends the plan and the survivors stay factorised:
// t's rows and one list each, owned by the Result (shared partner lists are
// never written). Otherwise they are written out at their exact size, into
// one pointer-free slice.
// counts holds the Fetch's logical row count and then the row count after
// each filter, for per-step traces; under a limit the latter cover only the
// rows intersected.
func (rt *Runtime) FetchFiltered(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter, last bool) (res *Result, counts []int, err error) {
	return rt.fetch(ctx, db, t, c, filters, !last)
}

// nodeFilter is a NodeFilter resolved against the Fetch's input: a
// Selection reads the partner list of the value in column col under cond
// (looked up per row, through a partner table resolved once per operator);
// a semijoin group tests membership in fixed sets, loaded once per operator.
type nodeFilter struct {
	cond    Cond
	forward bool
	col     int
	sets    []*gdb.NodeSet
}

// resolveFilters binds filters on newNode to the columns of t.
func resolveFilters(db *gdb.Snap, t *Result, newNode int, filters []NodeFilter) ([]nodeFilter, error) {
	out := make([]nodeFilter, len(filters))
	for i, f := range filters {
		if f.Semijoin {
			for _, c := range f.Conds {
				if err := incident(c, newNode, f.OutSide); err != nil {
					return nil, err
				}
			}
			sets, err := projections(db, f.Conds, f.OutSide)
			if err != nil {
				return nil, err
			}
			out[i].sets = sets
			continue
		}
		if len(f.Conds) != 1 {
			return nil, fmt.Errorf("rjoin: fused selection with %d conditions", len(f.Conds))
		}
		c := f.Conds[0]
		nf := nodeFilter{cond: c, col: -1}
		switch newNode {
		case c.ToNode:
			nf.forward, nf.col = true, t.ColIndex(c.FromNode)
		case c.FromNode:
			nf.col = t.ColIndex(c.ToNode)
		}
		if nf.col < 0 {
			return nil, fmt.Errorf("rjoin: fused selection %v needs node %d and a column of %v", c, newNode, t.Cols)
		}
		out[i] = nf
	}
	return out, nil
}

// fetchFilters is a Fetch's state for its filters: each Selection's partner
// table, resolved once like the Fetch's own, and the arena the surviving
// lists are written to — append-only chunks, so a list never moves once it
// is in a Result.
type fetchFilters struct {
	fs    []nodeFilter
	sel   []partnerFunc // per filter; nil for a semijoin group
	arena []graph.NodeID
}

// listArenaChunk is the arena's chunk size in node IDs (32 KB).
const listArenaChunk = 8192

func openFilters(rd reads, fs []nodeFilter) (*fetchFilters, error) {
	p := &fetchFilters{fs: fs, sel: make([]partnerFunc, len(fs))}
	for k, f := range fs {
		if f.sets != nil {
			continue
		}
		var err error
		if p.sel[k], err = rd.partners(f.cond, f.forward); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// apply returns the members of targets — row's partner list, shared and
// left untouched — that pass every filter, adding the count left after
// filter k to counts[k+1]. The first filter to run writes to fresh arena
// space and later ones shrink that list in place (gdb.IntersectTo and
// NodeSet.FilterTo both allow a destination that starts where their input
// does); bound is the most the rest of the input can still keep, which
// sizes a new chunk.
func (p *fetchFilters) apply(row, targets []graph.NodeID, counts []int, bound int) ([]graph.NodeID, error) {
	cur, owned := targets, false
	for k, f := range p.fs {
		if f.sets != nil {
			for _, set := range f.sets {
				if len(cur) == 0 {
					break
				}
				cur = set.FilterTo(p.dst(cur, owned, len(cur), bound), cur)
				owned = true
			}
		} else if len(cur) > 0 {
			other, err := p.sel[k](row[f.col])
			if err != nil {
				return nil, err
			}
			cur = gdb.IntersectTo(p.dst(cur, owned, min(len(cur), len(other)), bound), cur, other)
			owned = true
		}
		counts[k+1] += len(cur)
	}
	if owned {
		// Commit the arena's newest list at its final length.
		p.arena = p.arena[:len(p.arena)+len(cur)]
		cur = cur[:len(cur):len(cur)]
	}
	return cur, nil
}

// dst returns where a filter writes what it keeps of cur, at most n
// entries: cur's own storage once apply owns it, else n entries of fresh
// arena space.
func (p *fetchFilters) dst(cur []graph.NodeID, owned bool, n, bound int) []graph.NodeID {
	if owned {
		return cur[:0]
	}
	if cap(p.arena)-len(p.arena) < n {
		p.arena = make([]graph.NodeID, 0, max(n, min(listArenaChunk, bound)))
	}
	return p.arena[len(p.arena) : len(p.arena) : len(p.arena)+n]
}

// fetch is the one loop behind Fetch, FetchResult and FetchFiltered: expand
// resolves each row's partner list, the loop charges the budget for every
// row the lists stand for, and — with filters — each list is cut down to
// its survivors as it is charged. emit says whether the rows are then
// written out (an intermediate step, whose consumer is the next operator)
// or left factorised (the last step, whose consumer iterates).
func (rt *Runtime) fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter, emit bool) (*Result, []int, error) {
	if err := plain(t); err != nil {
		return nil, nil, err
	}
	boundNode, forward, err := boundSide(t, c)
	if err != nil {
		return nil, nil, err
	}
	newNode := c.ToNode
	if !forward {
		newNode = c.FromNode
	}
	col := t.ColIndex(boundNode)
	cols := append(append([]int(nil), t.Cols...), newNode)
	fs, err := resolveFilters(db, t, newNode, filters)
	if err != nil {
		return nil, nil, err
	}
	rd := rt.open(db)
	defer rd.done()
	partners, err := rd.partners(c, forward)
	if err != nil {
		return nil, nil, err
	}
	var pf *fetchFilters
	if len(fs) > 0 {
		if pf, err = openFilters(rd, fs); err != nil {
			return nil, nil, err
		}
		rt.fusedFilters += int64(len(fs))
	}
	rt.ops++
	// The limit is on the operator's output: the expansion's without
	// filters, the survivors' with them.
	expandLimit := rt.rowTarget
	if pf != nil {
		expandLimit = 0
	}
	// An emitting Fetch's lists live only until its rows are written, so
	// they go in the runtime's scratch, which the query's next emitting
	// Fetch reuses; a factorised Result keeps its own.
	var exp [][]graph.NodeID
	if emit {
		exp = rt.exp[:0]
	}
	exp, total, err := rt.expand(ctx, partners, t, col, len(cols), expandLimit, exp)
	if emit {
		rt.exp = exp[:0]
	}
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, 1+len(fs))
	res := &Result{Cols: cols}
	if total > 0 {
		res = &Result{Cols: cols, Data: t.Data[:len(exp)*t.Width()], Exp: exp, N: total}
		if err := rt.fill(ctx, res, pf, counts); err != nil {
			return nil, nil, err
		}
		if emit {
			res.Data, res.Exp = res.flat(nil), nil
		}
	}
	if pf != nil {
		// The unfused Fetch's checkpoint, on the rows it would have produced.
		if err := rt.checkpoint(counts[0]); err != nil {
			return nil, nil, err
		}
	}
	res, err = rt.finishResult(res)
	return res, counts, err
}

// fill is fetch's charging loop over the expansion in res: per prefix row
// it charges the budget for every row the partner list stands for — whether
// or not the row is written out or, under filters pf, survives — and cuts
// the list to its survivors when pf is set. counts[0] receives the
// expansion's logical row count, counts[k+1] the count after filter k.
// Counting first is what lets fetch then write the rows out at their exact
// size.
func (rt *Runtime) fill(ctx context.Context, res *Result, pf *fetchFilters, counts []int) error {
	width := len(res.Cols)
	cc := rt.check(ctx)
	n, kept := 0, 0
	for i, targets := range res.Exp {
		// One cancellation charge per row unit: the scan itself plus every
		// row it stands for.
		if err := cc.tickN(1 + len(targets)); err != nil {
			return err
		}
		rt.budget.AddBytes(int64(len(targets)) * int64(width) * nodeIDBytes)
		switch {
		case pf != nil && rt.pastLimit(kept):
			// limit+1 survivors prove truncation; the rest of the input is
			// only accounted for.
			res.Exp[i] = nil
		case pf != nil:
			var err error
			if res.Exp[i], err = pf.apply(res.Row(i), targets, counts, res.N-n); err != nil {
				return err
			}
			kept += len(res.Exp[i])
		}
		n += len(targets)
		if err := rt.budget.CheckRows(n); err != nil {
			return err
		}
	}
	counts[0] = n
	if pf != nil {
		res.N = kept
	}
	return nil
}

// expand is Fetch's counting pass: it resolves each input row's expansion
// list — its bound value's partners, shared with the read path and never
// copied — and the total rows they stand for at the given output width,
// without emitting anything. It stops after the first row at which the
// charging loop would stop anyway: where the given limit is exceeded
// (limit+1 rows prove truncation, and whole-row expansions keep the output
// a prefix of the unlimited one), where the output outgrows the row budget
// (the loop's CheckRows then fails on exactly that row), or where its bytes
// alone would blow the byte budget (the loop charges them and the next poll
// or the final checkpoint fails the query) — so a doomed query never
// allocates its full output. The lists are appended to exp, which is
// allocated at its final size when it has no room.
func (rt *Runtime) expand(ctx context.Context, partners partnerFunc, t *Result, col, width, limit int, exp [][]graph.NodeID) ([][]graph.NodeID, int, error) {
	n := t.N
	if limit > 0 && limit < n {
		n = limit + 1
	}
	if cap(exp) < n {
		exp = make([][]graph.NodeID, 0, n)
	}
	cc := newCancelCheck(ctx)
	w, total := t.Width(), 0
	for i := 0; i < t.N; i++ {
		if err := cc.tick(); err != nil {
			return exp, 0, err
		}
		targets, err := partners(t.Data[i*w+col])
		if err != nil {
			return exp, 0, err
		}
		exp = append(exp, targets)
		total += len(targets)
		if limit > 0 && total > limit ||
			rt.budget.CheckRows(total) != nil ||
			rt.budget.overBytes(int64(total)*int64(width)*nodeIDBytes) {
			break
		}
	}
	return exp, total, nil
}

// Selection processes a self R-join (Eq. 5): both pattern nodes of the
// condition are already bound in t, so the condition reduces to checking
// out(x) ∩ in(y) ≠ ∅ per row from graph codes. Rows keep their input
// order; t is consumed (see compact).
func (rt *Runtime) Selection(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	if err := plain(t); err != nil {
		return nil, err
	}
	fi, ti := t.ColIndex(c.FromNode), t.ColIndex(c.ToNode)
	if fi < 0 || ti < 0 {
		return nil, fmt.Errorf("rjoin: selection %v needs both sides bound in %v", c, t.Cols)
	}
	rt.ops++
	cc := rt.check(ctx)
	rd := rt.open(db)
	defer rd.done()
	return rt.compact(t, func(row []graph.NodeID) (bool, error) {
		if err := cc.tick(); err != nil {
			return false, err
		}
		return rd.reaches(row[fi], row[ti])
	})
}

// NestedLoopJoin is the reference R-join used by tests and as a measurable
// worst-case baseline: it checks reachability via graph codes for every
// pair of extents, bypassing the cluster index.
func NestedLoopJoin(ctx context.Context, db *gdb.Snap, c Cond) (*Result, error) {
	g := db.Graph()
	cc := newCancelCheck(ctx)
	out := &Result{Cols: []int{c.FromNode, c.ToNode}}
	for _, x := range g.Extent(c.FromLabel) {
		for _, y := range g.Extent(c.ToLabel) {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			ok, err := db.Reaches(x, y)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Data = append(out.Data, x, y)
				out.N++
			}
		}
	}
	return out, nil
}
