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
		pairs = pairPool.grow(&rt.pairs, pairs, len(xs)*len(ys))
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
	out.Data = rt.nodeBuf(2 * len(pairs))[:2*len(pairs)]
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
	t = rt.rowsOf(t, node)
	col := t.ColIndex(node)
	if col < 0 {
		return nil, fmt.Errorf("rjoin: filter group on unbound node %d in %v", node, t.Cols)
	}
	g := &semijoinGroup{conds: conds, outSide: outSide}
	for _, c := range conds {
		if err := incident(c, node, outSide, sideLabel(conds[0], outSide)); err != nil {
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
	return rt.compact(ctx, t, func(row []graph.NodeID) (bool, error) {
		return rd.semijoin(g, row[col])
	})
}

// FilterExtent is FilterGroup over the one-column table of ext(X), X the
// label the group gives node — a plan's leading Filter-move — without the
// table: it ANDs the group's projections word by word and lists the
// survivors in rank order, which is extent order (gdb.AppendCommon), so
// the rows and their order are FilterGroup's over the extent. Like that
// scan it ticks once per extent node and stops once it holds limit+1
// survivors; the caller charges the extent's bytes, as for the table.
func (rt *Runtime) FilterExtent(ctx context.Context, db *gdb.Snap, conds []Cond, node int, outSide bool) (*Result, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("rjoin: extent filter on node %d with no condition", node)
	}
	label := sideLabel(conds[0], outSide)
	for _, c := range conds {
		if err := incident(c, node, outSide, label); err != nil {
			return nil, err
		}
	}
	projs, err := projections(db, conds, outSide)
	if err != nil {
		return nil, err
	}
	out, ext := &Result{Cols: []int{node}}, db.Graph().Extent(label)
	n := len(ext)
	for _, p := range projs {
		n = min(n, p.Len())
	}
	if n == 0 {
		// Some condition can never be satisfied: the group empties t.
		return out, nil
	}
	rt.ops++
	if rt.rowTarget > 0 {
		n = min(n, rt.rowTarget+1)
	}
	cc := rt.check(ctx)
	out.Data = rt.nodeBuf(n)
	for lo := 0; lo < len(ext) && !rt.pastLimit(len(out.Data)); lo += cancelStride {
		hi := min(lo+cancelStride, len(ext))
		if err := cc.tickN(hi - lo); err != nil {
			return nil, err
		}
		out.Data = gdb.AppendCommon(out.Data, ext, projs, lo, hi)
	}
	out.N = len(out.Data)
	return rt.finishResult(out)
}

// compact is the loop behind FilterGroup and Selection: it keeps the rows
// of t that keep accepts, in input order, writing each survivor over t's
// own data — row k lands at an index no greater than the one it was read
// from, the rule gdb.IntersectTo and RankSet.FilterTo follow in place — so
// a filter allocates nothing. Over a factorised t (see rowsOf) it keeps or
// drops prefix rows, ticking each for the rows it stands for. It stops at
// limit+1 survivors and returns t, cut to them, through the operator
// checkpoint.
func (rt *Runtime) compact(ctx context.Context, t *Result, keep func(row []graph.NodeID) (bool, error)) (*Result, error) {
	cc := rt.check(ctx)
	w, rows, kept := t.Width(), 0, 0
	wk := t.Walk()
	more := t.K() > 0 && wk.Next()
	for i := range t.prefixRows() {
		n := 1
		if t.K() > 0 {
			for n = 0; more && wk.Row() == i; more = wk.Next() {
				n += len(wk.Run())
			}
		}
		if n == 0 {
			continue
		}
		if err := cc.tickN(n); err != nil {
			return nil, err
		}
		row := t.Data[i*w : (i+1)*w]
		ok, err := keep(row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if rows < i {
			copy(t.Data[rows*w:], row)
		}
		rows, kept = rows+1, kept+n
		if rt.pastLimit(kept) {
			break
		}
	}
	t.Data, t.N = t.Data[:rows*w], kept
	return rt.finishResult(t)
}

// incident checks that c is read from node's given code side — node→Y for
// out-codes, X→node for in-codes — and gives node the label l. A
// condition's projection is a set over its label's ranks (gdb.RankSet),
// which can test no node of another label.
func incident(c Cond, node int, outSide bool, l graph.Label) error {
	if outSide && c.FromNode != node || !outSide && c.ToNode != node {
		return fmt.Errorf("rjoin: condition %v not incident on node %d's %s side", c, node, side(outSide))
	}
	if got := sideLabel(c, outSide); got != l {
		return fmt.Errorf("rjoin: condition %v labels node %d %d, not %d", c, node, got, l)
	}
	return nil
}

// sideLabel returns the label c gives its endpoint on the given code side.
func sideLabel(c Cond, outSide bool) graph.Label {
	if outSide {
		return c.FromLabel
	}
	return c.ToLabel
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
// running Filter first simply prunes earlier. It is FetchResult written out
// (Result.Flatten): one pointer-free slice of N×w cells.
func (rt *Runtime) Fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	res, _, err := rt.FetchFiltered(ctx, db, t, c, nil, false)
	return res, err
}

// FetchResult is Fetch with its rows left factorised: t's prefix rows and
// columns, shared, and one more expanded column under the bound node's,
// whose lists every consumer re-reads from the partner table. t may be
// factorised itself. Limit, budget and cancellation behave as in Fetch over
// t written out: the same logical bytes and rows are charged at the same
// points, so every counter and typed kill is the materialising run's.
func (rt *Runtime) FetchResult(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	res, _, err := rt.FetchFiltered(ctx, db, t, c, nil, true)
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
// With no filters this is FetchResult, or without factorise Fetch. On the
// decoded read path the leading run of semijoin groups folds into the
// Fetch's partner handle: each group is a filtered table chained on the
// one before (gdb.Partners.Semijoin), whose slot holds the list the groups
// leave and the unfiltered list's length, so those groups test no
// candidate per row. With factorise set the survivors stay factorised, in
// one more column: one that only folded groups filtered stores nothing
// and is re-read from its filtered table like an unfiltered column; one
// that a Selection filtered keeps its survivors per element of its
// parent: the deepest of the columns the group reads (the bound one and
// each Selection's other endpoint). Where two of those lie on different
// branches, t is written out first.
// counts holds the Fetch's logical row count and then the row count after
// each filter, for per-step traces; under a limit the latter cover only the
// rows filtered.
func (rt *Runtime) FetchFiltered(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter, factorise bool) (*Result, []int, error) {
	res, counts, err := rt.fetch(ctx, db, t, c, filters)
	if err == nil && !factorise {
		res = rt.flatten(res)
	} else if err == nil {
		rt.factorised++
	}
	return res, counts, err
}

// nodeFilter is a NodeFilter resolved against the Fetch's input: a
// Selection reads the partner list of the value in column col under cond
// (looked up per row, through a partner table resolved once per operator);
// a semijoin group tests membership in fixed sets, loaded once per operator.
type nodeFilter struct {
	cond    Cond
	forward bool
	col     int
	sets    []*gdb.RankSet
}

// resolveFilters binds filters on newNode, of label target, to the columns
// of t.
func resolveFilters(db *gdb.Snap, t *Result, newNode int, target graph.Label, filters []NodeFilter) ([]nodeFilter, error) {
	out := make([]nodeFilter, len(filters))
	for i, f := range filters {
		if f.Semijoin {
			for _, c := range f.Conds {
				if err := incident(c, newNode, f.OutSide, target); err != nil {
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
		if nf.col < 0 {
			return nil, fmt.Errorf("rjoin: fused selection %v needs node %d and a column of %v", c, newNode, t.Cols)
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
// table, resolved once like the Fetch's own, and the epoch's bitmaps of the
// Selections' lists and of the Fetch's own (see apply).
type fetchFilters struct {
	fs   []nodeFilter
	sel  []partnerFunc  // per filter; nil for a semijoin group
	sets []gdb.Partners // per filter: the bitmaps of a Selection's lists
	own  gdb.Partners   // the bitmaps of the Fetch's lists
	col  int            // the Fetch's bound column
	rank gdb.Ranks
	buf  []graph.NodeID // the survivors, before a stored column copies them
	rt   *Runtime       // whose store buf is drawn from
}

// openFilters resolves fs for the Fetch of condition c, read forward or in
// reverse, whose bound value is in column col.
func (rt *Runtime) openFilters(rd reads, db *gdb.Snap, fs []nodeFilter, c Cond, forward bool, col int) (*fetchFilters, error) {
	p := &fetchFilters{fs: fs, sel: make([]partnerFunc, len(fs)), sets: make([]gdb.Partners, len(fs)), col: col, rank: db.Ranks(), rt: rt}
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

// apply returns the members of targets — the partner list of the Fetch's
// bound value, or what the groups folded before these filters left of it,
// shared and left untouched (own: it is still the whole list) — that pass
// every filter, reading the filters' bound values off the walk wk, and
// adds m times the count
// left after filter k to counts[k+1]: the m input rows that stand on the
// walk's position. The first filter to run writes to the operator's
// scratch list and later ones shrink that list in place (gdb.IntersectTo
// and RankSet.FilterTo both allow a destination that starts where their
// input does).
//
// A semijoin group keeps the candidates in each condition's projection, a
// set over the new node's ranks, with the kernel a Selection runs against
// a bitmap (RankSet.FilterTo).
//
// A Selection iterates the shorter of the candidates and its bound value's
// list and bit-tests each entry against the longer one's bitmap (gdb.
// Partners.Bitmap): the list's, or the candidates' while they are still
// the Fetch's own list — a bitmap is of a partner-table list, never of a
// list a filter wrote or a filtered table cut down. Both operands are
// ascending lists of distinct nodes of the new node's label, whose ranks
// are distinct, so this keeps exactly
// the entries IntersectTo keeps, in the same order. Where the longer one
// has no bitmap (it is below the size rule, or its bound value is outside
// its table's bound label), IntersectTo merges the two.
func (p *fetchFilters) apply(wk *Walker, targets []graph.NodeID, counts []int, m int, own bool) ([]graph.NodeID, error) {
	cur, owned := targets, false
	// dst is where a filter writes what it keeps of cur, at most n
	// entries: cur's own storage once apply owns it, else the scratch list.
	dst := func(n int) []graph.NodeID {
		if owned {
			return cur[:0]
		}
		p.buf = nodePool.grow(&p.rt.nodes, p.buf[:0], n)
		return p.buf
	}
	for k, f := range p.fs {
		if f.sets != nil {
			for _, set := range f.sets {
				if len(cur) == 0 {
					break
				}
				cur = set.FilterTo(p.rank, dst(len(cur)), cur)
				owned = true
			}
		} else if len(cur) > 0 {
			v := wk.Cell(f.col)
			other, err := p.sel[k](v)
			if err != nil {
				return nil, err
			}
			d := dst(min(len(cur), len(other)))
			short, set := cur, (*gdb.RankSet)(nil)
			if len(cur) <= len(other) {
				set = p.sets[k].Bitmap(v, other)
			} else if !owned && own {
				short, set = other, p.own.Bitmap(wk.Cell(p.col), cur)
			}
			if set != nil {
				cur = set.FilterTo(p.rank, d, short)
			} else {
				cur = gdb.IntersectTo(d, cur, other)
			}
			owned = true
		}
		counts[k+1] += m * len(cur)
	}
	return cur, nil
}

// fetch is the one loop behind Fetch, FetchResult and FetchFiltered. Its
// output is t's prefix rows and columns, shared, and one more expanded
// column, holding nothing for an unfiltered Fetch on the decoded read path
// (its consumer re-reads each list from the partner table) and the
// survivors otherwise. The work is per element of the column's parent,
// the accounting per logical input row (see expand).
func (rt *Runtime) fetch(ctx context.Context, db *gdb.Snap, t *Result, c Cond, filters []NodeFilter) (*Result, []int, error) {
	boundNode, forward, err := boundSide(t, c)
	if err != nil {
		return nil, nil, err
	}
	newNode := c.ToNode
	if !forward {
		newNode = c.FromNode
	}
	col := t.ColIndex(boundNode)
	if t.K() >= maxExpanded {
		return nil, nil, fmt.Errorf("rjoin: fetch of %v over %d expanded columns", c, t.K())
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
	var buf [maxExpanded + 1]int
	reads := append(buf[:0], col)
	for _, f := range fs {
		if f.sets == nil {
			reads = append(reads, f.col)
		}
	}
	parent, ok := t.branch(reads...)
	if !ok {
		// Only rows hold values of two branches together.
		t, parent = rt.flatten(t), -1
	}
	rd := rt.open(db)
	defer rd.done()
	partners, err := rd.partners(c, forward)
	if err != nil {
		return nil, nil, err
	}
	// The leading run of semijoin groups folds into a filtered table
	// where the read path keeps them (see fold).
	lead := 0
	for lead < len(fs) && fs[lead].sets != nil {
		lead++
	}
	folded, err := rd.fold(c, forward, filters[:lead])
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Cols: cols, Data: t.Data, exp: append(append(make([]expanded, 0, t.K()+1), t.exp...), expanded{bound: col, parent: parent})}
	out := &res.exp[t.K()]
	var reread bool
	if out.lists, reread, err = rd.lists(c, forward); err != nil {
		return nil, nil, err
	}
	if len(folded) > 0 {
		out.lists = folded[len(folded)-1].Lists()
	}
	var pf *fetchFilters
	if rest := fs[len(folded):]; len(rest) > 0 {
		if pf, err = rt.openFilters(rd, db, rest, c, forward, col); err != nil {
			return nil, nil, err
		}
	}
	rt.fusedFilters += int64(len(fs))
	rt.ops++
	// The limit is on the operator's output: the expansion's without
	// filters, the survivors' with them.
	limit := rt.rowTarget
	if len(fs) > 0 {
		limit = 0
	}
	out.stored = pf != nil || !reread
	counts := make([]int, 1+len(fs))
	rows, n, err := rt.expand(ctx, partners, folded, res, limit, pf, counts)
	if err != nil {
		return nil, nil, err
	}
	res.Data, res.N = t.Data[:rows*t.Width()], n
	if counts[0] == 0 {
		res.Data, res.exp = nil, nil
	}
	if len(fs) > 0 {
		// The unfused Fetch's checkpoint, on the rows it would have produced.
		if err := rt.checkpoint(counts[0]); err != nil {
			return nil, nil, err
		}
	}
	res, err = rt.finishResult(res)
	return res, counts, err
}

// expand is fetch's pass over its input, the columns of res before the
// last, which it builds. Per unit of input rows that reach one element of
// the new column's parent (see units) it resolves the bound value's
// partner list — shared with the read path, never copied — or, through
// the filtered tables folded, the list the leading semijoin groups leave
// and the unfiltered one's length, and charges the budget for every row
// of the unfiltered expansion of the unit, as the step-by-step Fetch over
// the input written out would, in the same order: whether or not the row
// is written out or survives. The filters pf after the folded groups cut
// the list down further. A stored column keeps the list, or with pf its
// survivors, as its next block the first time the walk reaches the
// element. counts[0] receives the expansion's logical row count and
// counts[k+1] the count after filter k, folded or not; with a filter
// (len(counts) > 1), the output is the survivors. It returns the number
// of prefix rows the output covers and the output's row count.
//
// It stops after the first input row at which the step-by-step Fetch would
// stop anyway: where the given limit is exceeded (limit+1 rows prove
// truncation, and whole-row expansions keep the output a prefix of the
// unlimited one), where the output outgrows the row budget (CheckRows then
// fails on exactly that row), or where its bytes alone would blow the byte
// budget (they are charged and the next poll or the final checkpoint fails
// the query) — so a doomed query never allocates its full output. Each of
// these is a bound on the running total, found by division, not by a walk.
func (rt *Runtime) expand(ctx context.Context, partners partnerFunc, folded []gdb.Partners, res *Result, limit int, pf *fetchFilters, counts []int) (rows, n int, err error) {
	k, width := len(res.exp)-1, len(res.Cols)
	out, filtered := &res.exp[k], len(counts) > 1
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
	cc := rt.check(ctx)
	defer cc.flush()
	rows = res.prefixRows()
	if out.stored {
		out.elems = res.elements(out.parent)
		out.lens = lenPool.take(&rt.lens, out.elems)
	}
	var u units
	kept := 0
	u.init(res, k, rows)
	for m := u.next(); m > 0; m = u.next() {
		// limit+1 survivors prove truncation; the rest of the input is
		// only accounted for.
		v, done := u.Cell(out.bound), filtered && rt.pastLimit(kept)
		var targets []graph.NodeID
		var l int
		if len(folded) > 0 && !done {
			targets, l, err = folded[len(folded)-1].Lookup(v)
		} else {
			targets, err = partners(v)
			l = len(targets)
		}
		if err != nil {
			return 0, 0, err
		}
		last := false
		// m and l are below 2³¹, so the product fits an int64.
		if int64(n)+int64(m)*int64(l) > int64(bound) || n > bound {
			if bound == maxRows {
				return 0, 0, fmt.Errorf("rjoin: fetch of %v: more than %d rows", res.Cols[:width-1], maxRows)
			}
			// The input row, counting from 1, after which the total passes
			// bound: the last this unit stands for here.
			m = 1
			if n <= bound {
				m = (bound-n)/l + 1
			}
			rows, last = u.Row()+1, true
		}
		// The first input row: one cancellation charge for the scan itself
		// plus every row it stands for, and its bytes.
		if err := cc.tickN(1 + l); err != nil {
			return 0, 0, err
		}
		cc.charge(int64(l) * int64(width) * nodeIDBytes)
		if !done {
			for j := range folded {
				layer := targets
				if j < len(folded)-1 {
					if layer, err = folded[j].Of(v); err != nil {
						return 0, 0, err
					}
				}
				counts[j+1] += m * len(layer)
			}
			keep := targets
			if pf != nil {
				if keep, err = pf.apply(&u.Walker, targets, counts[len(folded):], m, len(targets) == l); err != nil {
					return 0, 0, err
				}
			}
			if filtered {
				kept += m * len(keep)
			}
			// A block the column holds already is counted, not kept twice.
			if out.stored {
				if u.fresh(k) {
					out.keep(rt, keep)
				}
				u.block(k)
			}
		}
		n += l
		if err := rt.budget.CheckRows(n); err != nil {
			return 0, 0, err
		}
		if m > 1 {
			if err := rt.chargeRows(&cc, m-1, l, width, &n); err != nil {
				return 0, 0, err
			}
		}
		if last {
			break
		}
	}
	counts[0] = n
	if filtered {
		return rows, kept, nil
	}
	return rows, n, nil
}

// chargeRows is expand's accounting for r more input rows that each expand
// to l rows of width cells: per row one tick of 1+l work units, l·width
// cells charged and the running row count n checked against the row cap,
// exactly as the loop over those rows written out would, but in bulk
// between the rows whose tick polls (the context, and the bytes charged
// before it), so it costs one step per poll, not one per row. Only the
// last of the rows can pass MaxTableRows: expand stops at the first that
// does.
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

// maxRows bounds the rows a Fetch may stand for, so the products stay
// inside an int on every platform; the step-by-step Fetch would have
// written them out, at 4 bytes a cell.
const maxRows = math.MaxInt32

// Selection processes a self R-join (Eq. 5): both pattern nodes of the
// condition are already bound in t, so the condition reduces to checking
// out(x) ∩ in(y) ≠ ∅ per row from graph codes. Rows keep their input
// order; t is consumed (see compact).
func (rt *Runtime) Selection(ctx context.Context, db *gdb.Snap, t *Result, c Cond) (*Result, error) {
	t = rt.rowsOf(t, c.FromNode, c.ToNode)
	fi, ti := t.ColIndex(c.FromNode), t.ColIndex(c.ToNode)
	if fi < 0 || ti < 0 {
		return nil, fmt.Errorf("rjoin: selection %v needs both sides bound in %v", c, t.Cols)
	}
	rt.ops++
	rd := rt.open(db)
	defer rd.done()
	return rt.compact(ctx, t, func(row []graph.NodeID) (bool, error) {
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
