package rjoin

import (
	"context"
	"fmt"
	"math"
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
// taking a modulo so the per-tick cost is one decrement. Bytes an operator
// charges through it are held locally and added to the budget at the next
// poll or flush, so a per-row charge costs no atomic add, and every check
// sees every byte charged before it.
type cancelCheck struct {
	ctx   context.Context
	b     *Budget
	left  int
	bytes int64
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
	c.flush()
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.b.CheckBytes()
}

// charge records n bytes of intermediate-result allocation, to be added to
// the budget at the next poll or flush.
func (c *cancelCheck) charge(n int64) { c.bytes += n }

// flush adds the bytes charged since the last poll to the budget. An
// operator that charges flushes on every return.
func (c *cancelCheck) flush() {
	if c.bytes != 0 {
		c.b.AddBytes(c.bytes)
		c.bytes = 0
	}
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
	g := &semijoinGroup{conds: conds, outSide: outSide}
	for _, c := range conds {
		if err := incident(c, node, outSide); err != nil {
			return nil, err
		}
	}
	rd := rt.open(db)
	defer rd.done()
	empty, err := rd.prepare(g)
	if err != nil {
		return nil, err
	}
	if empty {
		// Some condition can never be satisfied: the group empties t.
		t.Data, t.N = t.Data[:0], 0
		return t, nil
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

// plain refuses a factorised Result as an operator's input: only the
// Fetches of a plan's factorised tail leave one, and only the tail's next
// Fetch (FetchResult) runs after them.
func plain(t *Result) error {
	if t.K != 0 {
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

// FetchResult is Fetch for a step of a plan's factorised tail: the same
// rows in the same order, handed up as the factorised Result expand
// resolved — t's prefix rows with one more list each, the bound value's
// shared partner list — instead of being written out. t may itself be
// factorised, as long as the bound column is one of its prefix columns:
// every row a prefix row stands for then expands by the same list. Limit,
// budget and cancellation behave as in Fetch over t written out: the same
// logical bytes and rows are charged at the same points, so every counter
// and typed kill is the materialising run's. The Result's prefix rows are
// t's data, shared.
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
// With no filters this is Fetch, or with factorise set FetchResult. With
// factorise set the group is a step of the plan's factorised tail and the
// survivors stay factorised: t's prefix rows and one more list each, owned
// by the Result (shared partner lists are never written), and t may be
// factorised as FetchResult allows. Otherwise they are written out at their
// exact size, into one pointer-free slice.
// counts holds the Fetch's logical row count and then the row count after
// each filter, for per-step traces; under a limit the latter cover only the
// rows of the prefix rows filtered.
func (rt *Runtime) FetchFiltered(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter, factorise bool) (res *Result, counts []int, err error) {
	return rt.fetch(ctx, db, t, c, filters, !factorise)
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

// resolveFilters binds filters on newNode, of label target, to the columns
// of t.
func resolveFilters(db *gdb.Snap, t *Result, newNode int, target graph.Label, filters []NodeFilter) ([]nodeFilter, error) {
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
		label := c.FromLabel
		switch newNode {
		case c.ToNode:
			nf.forward, nf.col, label = true, t.ColIndex(c.FromNode), c.ToLabel
		case c.FromNode:
			nf.col = t.ColIndex(c.ToNode)
		}
		if nf.col < 0 || nf.col >= t.Width() {
			return nil, fmt.Errorf("rjoin: fused selection %v needs node %d and a prefix column of %v", c, newNode, t.Cols)
		}
		if label != target {
			// Its lists would hold nodes of another label than the
			// candidates, whose ranks no bitmap of either can test.
			return nil, fmt.Errorf("rjoin: fused selection %v labels node %d %d, the fetch %d", c, newNode, label, target)
		}
		out[i] = nf
	}
	return out, nil
}

// fetchFilters is a Fetch's state for its filters: each Selection's partner
// table, resolved once like the Fetch's own, the epoch's bitmaps of the
// Selections' lists and of the Fetch's own (see apply), and the arena the
// surviving lists are written to — append-only chunks, so a list never
// moves once it is in a Result.
type fetchFilters struct {
	fs    []nodeFilter
	sel   []partnerFunc  // per filter; nil for a semijoin group
	sets  []gdb.Partners // per filter: the bitmaps of a Selection's lists
	own   gdb.Partners   // the bitmaps of the Fetch's lists
	col   int            // the Fetch's bound column
	rank  gdb.Ranks
	arena []graph.NodeID
}

// listArenaChunk is the arena's chunk size in node IDs (32 KB).
const listArenaChunk = 8192

// openFilters resolves fs for the Fetch of condition c, read forward or in
// reverse, whose bound value is in column col.
func openFilters(rd reads, db *gdb.Snap, fs []nodeFilter, c Cond, forward bool, col int) (*fetchFilters, error) {
	p := &fetchFilters{fs: fs, sel: make([]partnerFunc, len(fs)), sets: make([]gdb.Partners, len(fs)), col: col, rank: db.Ranks()}
	var err error
	if p.own, err = rd.bitmaps(c, forward); err != nil {
		return nil, err
	}
	for k, f := range fs {
		if f.sets != nil {
			continue
		}
		if p.sel[k], err = rd.partners(f.cond, f.forward); err != nil {
			return nil, err
		}
		if p.sets[k], err = rd.bitmaps(f.cond, f.forward); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// apply returns the members of targets — row's partner list, shared and
// left untouched — that pass every filter, adding m times the count left
// after filter k to counts[k+1]: the m input rows that stand on row. The
// first filter to run writes to fresh arena space and later ones shrink
// that list in place (gdb.IntersectTo and the two sets' FilterTo all allow
// a destination that starts where their input does); bound is the most
// the rest of the input can still keep, which sizes a new chunk.
//
// A Selection iterates the shorter of the candidates and its bound value's
// list and bit-tests each entry against the longer one's bitmap (gdb.
// Partners.Bitmap): the list's, or the candidates' while they are still
// the Fetch's own list — a bitmap is of a partner-table list, never of a
// list a filter wrote. Both operands are ascending lists of distinct nodes
// of the new node's label, whose ranks are distinct, so this keeps exactly
// the entries IntersectTo keeps, in the same order. Where the longer one
// has no bitmap (it is below the size rule, or its bound value is outside
// its table's bound label), IntersectTo merges the two.
func (p *fetchFilters) apply(row, targets []graph.NodeID, counts []int, m, bound int) ([]graph.NodeID, error) {
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
			v := row[f.col]
			other, err := p.sel[k](v)
			if err != nil {
				return nil, err
			}
			dst := p.dst(cur, owned, min(len(cur), len(other)), bound)
			short, set := cur, (*gdb.RankSet)(nil)
			if len(cur) <= len(other) {
				set = p.sets[k].Bitmap(v, other)
			} else if !owned {
				short, set = other, p.own.Bitmap(row[p.col], cur)
			}
			if set != nil {
				cur = set.FilterTo(p.rank, dst, short)
			} else {
				cur = gdb.IntersectTo(dst, cur, other)
			}
			owned = true
		}
		counts[k+1] += m * len(cur)
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
// resolves each prefix row's partner list, the loop charges the budget for
// every row the lists stand for, and — with filters — each list is cut
// down to its survivors as it is charged. emit says whether the rows are
// then written out (an intermediate step, whose consumer is the next
// operator) or left factorised (a step of the plan's factorised tail, whose
// consumer is the next tail step or iterates).
//
// Over a factorised t the work is per prefix row — one partner lookup, one
// filter pass — while the accounting is per logical input row: every one
// of the rows a prefix row stands for is ticked, charged and row-checked
// as the step-by-step Fetch over t written out would, in the same order
// (see chargeRows), so its counters, kills and limit stop are that run's.
func (rt *Runtime) fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter, emit bool) (*Result, []int, error) {
	if emit {
		if err := plain(t); err != nil {
			return nil, nil, err
		}
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
	if col >= t.Width() {
		return nil, nil, fmt.Errorf("rjoin: fetch of %v reads expanded column %d of %v", c, boundNode, t.Cols)
	}
	cols := append(append([]int(nil), t.Cols...), newNode)
	target := c.ToLabel
	if !forward {
		target = c.FromLabel
	}
	fs, err := resolveFilters(db, t, newNode, target, filters)
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
		if pf, err = openFilters(rd, db, fs, c, forward, col); err != nil {
			return nil, nil, err
		}
		rt.fusedFilters += int64(len(fs))
	}
	rt.ops++
	if !emit {
		rt.factorised++
	}
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
	exp, total, part, err := rt.expand(ctx, partners, t, col, len(cols), expandLimit, exp)
	if emit {
		rt.exp = exp[:0]
	}
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, 1+len(fs))
	res := &Result{Cols: cols}
	if total > 0 {
		k := t.K + 1
		res = &Result{Cols: cols, Data: t.Data[:len(exp)/k*t.Width()], Exp: exp, K: k, N: total}
		if err := rt.fill(ctx, res, part, pf, counts); err != nil {
			return nil, nil, err
		}
		if emit {
			res.Data, res.Exp, res.K = res.flat(nil), nil, 0
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

// fill is fetch's charging loop over the expansion in res, whose
// innermost lists expand just resolved: per prefix row it charges the
// budget for every row the partner list stands for — once per logical
// input row, whether or not the row is written out or, under filters pf,
// survives — and cuts the list to its survivors when pf is set. The last
// prefix row stands for only part of its input rows when expand stopped
// inside it. counts[0] receives the expansion's logical row count,
// counts[k+1] the count after filter k, and res.N the output's. Counting
// first is what lets fetch then write the rows out at their exact size.
func (rt *Runtime) fill(ctx context.Context, res *Result, part int, pf *fetchFilters, counts []int) error {
	width, k := len(res.Cols), res.K
	cc := rt.check(ctx)
	defer cc.flush()
	rows := res.prefixRows()
	n, kept := 0, 0
	for i, j := 0, k-1; i < rows; i, j = i+1, j+k {
		inner := &res.Exp[j]
		targets := *inner
		// m input rows stand on prefix row i: the product of its outer
		// lists, each expanding to targets.
		m := 1
		if k > 1 {
			if m = product(res.Exp[j-k+1 : j]); i == rows-1 {
				m = part
			}
		}
		if m == 0 {
			continue
		}
		// The first input row: one cancellation charge for the scan itself
		// plus every row it stands for, and its bytes.
		if err := cc.tickN(1 + len(targets)); err != nil {
			return err
		}
		cc.charge(int64(len(targets)) * int64(width) * nodeIDBytes)
		switch {
		case pf != nil && rt.pastLimit(kept):
			// limit+1 survivors prove truncation; the rest of the input is
			// only accounted for.
			*inner = nil
		case pf != nil:
			var err error
			if *inner, err = pf.apply(res.Row(i), targets, counts, m, res.N-n); err != nil {
				return err
			}
			kept += m * len(*inner)
		}
		n += len(targets)
		if err := rt.budget.CheckRows(n); err != nil {
			return err
		}
		if m > 1 {
			if err := rt.chargeRows(&cc, m-1, len(targets), width, &n); err != nil {
				return err
			}
		}
	}
	counts[0] = n
	res.N = n
	if pf != nil {
		res.N = kept
	}
	return nil
}

// chargeRows is fill's accounting for r more input rows that each expand
// to l rows of width cells: per row one tick of 1+l work units, l·width
// cells charged and the running row count n checked against the row cap,
// exactly as the loop over those rows written out would, but in bulk
// between the rows whose tick polls (the context, and the bytes charged
// before it), so it costs one step per poll, not one per row. Only the
// last of the rows can pass MaxTableRows: expand stopped at the first
// that does.
func (rt *Runtime) chargeRows(cc *cancelCheck, r, l, width int, n *int) error {
	bytes := int64(l) * int64(width) * nodeIDBytes
	for r > 0 {
		// j is the next row whose tick polls, or the last: rows before it
		// only add up.
		j := min(r, (cc.left+l)/(1+l))
		q := j - 1
		cc.left -= q * (1 + l)
		cc.bytes += int64(q) * bytes
		*n += q * l
		if err := cc.tickN(1 + l); err != nil {
			return err
		}
		cc.charge(bytes)
		*n += l
		if err := rt.budget.CheckRows(*n); err != nil {
			return err
		}
		r -= j
	}
	return nil
}

// limitedExp is the prefix-row count a limited expand reserves lists for
// first.
const limitedExp = 16

// expand is Fetch's counting pass: it resolves each prefix row's expansion
// list — its bound value's partners, shared with the read path and never
// copied — and the total rows they stand for at the given output width,
// without emitting anything. A prefix row of a factorised t stands for the
// product of its lists, each an input row expanding by the same list, so
// the lookup is once per prefix row and the rows are counted per input
// row. It stops after the first input row at which the charging loop would
// stop anyway: where the given limit is exceeded (limit+1 rows prove
// truncation, and whole-row expansions keep the output a prefix of the
// unlimited one), where the output outgrows the row budget (the loop's
// CheckRows then fails on exactly that row), or where its bytes alone
// would blow the byte budget (the loop charges them and the next poll or
// the final checkpoint fails the query) — so a doomed query never
// allocates its full output. Each of these is a bound on the running
// total, so the row it stops at is found by division, not by a walk.
//
// The lists are appended to exp with stride t.K+1: per prefix row t's own
// lists, then the new one (nil for a prefix row that stands for no rows,
// which is not looked up). part is the number of input rows of the last
// prefix row the total covers: all of them unless expand stopped inside
// it. Without a limit every prefix row gets an entry, so exp is allocated
// at its final size when it has no room; under a limit one list may
// already pass it, so exp starts at limitedExp prefix rows and grows by
// append.
func (rt *Runtime) expand(ctx context.Context, partners partnerFunc, t *Result, col, width, limit int, exp [][]graph.NodeID) ([][]graph.NodeID, int, int, error) {
	rows, k := t.prefixRows(), t.K
	n := rows
	if limit > 0 && limit < n {
		n = min(limit+1, limitedExp)
	}
	if cap(exp) < n*(k+1) {
		exp = make([][]graph.NodeID, 0, n*(k+1))
	}
	// bound is the largest total at which expand goes on; past maxRows
	// with no limit or budget below it, the result is refused.
	bound := maxRows
	if limit > 0 {
		bound = min(bound, limit)
	}
	if b := rt.budget; b != nil {
		if b.MaxTableRows > 0 {
			bound = min(bound, b.MaxTableRows)
		}
		if b.MaxBytes > 0 {
			bound = min(bound, max(-1, int((b.MaxBytes-b.bytes.Load())/(int64(width)*nodeIDBytes))))
		}
	}
	cc := newCancelCheck(ctx)
	w, total, part := t.Width(), 0, 0
	for i := 0; i < rows; i++ {
		m := 1
		if k > 0 {
			lists := t.lists(i)
			exp = append(exp, lists...)
			if m = product(lists); m == 0 {
				exp, part = append(exp, nil), 0
				continue
			}
		}
		if err := cc.tickN(m); err != nil {
			return exp, 0, 0, err
		}
		targets, err := partners(t.Data[i*w+col])
		if err != nil {
			return exp, 0, 0, err
		}
		exp = append(exp, targets)
		l := len(targets)
		// m and l are below 2³¹, so the product fits an int64.
		if int64(total)+int64(m)*int64(l) > int64(bound) || total > bound {
			// The input row, counting from 1, after which the total
			// passes bound.
			stop := 1
			if total <= bound {
				stop = (bound-total)/l + 1
			}
			if bound == maxRows {
				return exp, 0, 0, fmt.Errorf("rjoin: fetch of %v: more than %d rows", t.Cols, maxRows)
			}
			return exp, total + stop*l, stop, nil
		}
		total, part = total+m*l, m
	}
	return exp, total, part, nil
}

// maxRows bounds the rows a Fetch may stand for, so the products stay
// inside an int on every platform; the step-by-step Fetch would have
// written them out, at 4 bytes a cell.
const maxRows = math.MaxInt32

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
