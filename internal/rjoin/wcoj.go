package rjoin

import (
	"context"
	"fmt"
	"slices"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// Worst-case-optimal multiway R-join (LeapFrog-TrieJoin over the R-join
// index). Instead of joining the pattern's reachability conditions pairwise
// and materialising every intermediate cross-product, WCOJ binds the
// pattern variables one at a time in a global variable order; at each level
// the candidate values are the intersection of one sorted constraint list
// per incident condition, so no binding prefix ever extends in a direction
// some condition will later reject.
//
// The sorted tries come straight from the index of Section 3:
//
//   - A condition X→Y whose variables are both unbound contributes its
//     distinct projection π_X (or π_Y) — the union of the X-labeled
//     F-subclusters (Y-labeled T-subclusters) over W(X, Y), memoized per
//     snapshot (gdb.ProjectFrom/ProjectTo). This is the trie's first level.
//   - A condition with one side already bound to node v contributes the
//     exact set of partners of v: ∪_{w ∈ out(v) ∩ W(X,Y)} getT(w, Y)
//     forward, ∪_{w ∈ in(v) ∩ W(X,Y)} getF(w, X) reverse — the same
//     2-hop-code expansion Fetch performs per row, so reachability is
//     validated as bindings extend, never post-hoc.
//
// Every constraint list is ascending and duplicate-free, so the enumeration
// emits distinct rows in lexicographic order of the variable-order columns.

// WCOJ runs the worst-case-optimal multiway R-join on a fresh, unbudgeted
// Runtime. See Runtime.WCOJ.
func WCOJ(ctx context.Context, db *gdb.Snap, conds []Cond, order []int) (*Table, error) {
	return new(Runtime).WCOJ(ctx, db, conds, order)
}

// wcojPlan is the compiled form of one multiway join: per variable-order
// level, the fixed projection constraint lists and the bound-side
// constraints whose partner lists depend on earlier bindings.
type wcojPlan struct {
	order  []int
	levels []wcojLevel
}

type wcojLevel struct {
	node int
	// proj holds the distinct-projection lists of conditions whose other
	// endpoint binds later: fixed for the whole query, shared with the
	// snapshot memo (never mutated).
	proj [][]graph.NodeID
	// bound holds the conditions whose other endpoint binds earlier; their
	// candidate lists are per-binding target unions.
	bound []wcojBound
}

type wcojBound struct {
	cond Cond
	// level is the variable-order level binding the condition's other
	// endpoint.
	level int
	// forward reports that the bound endpoint is the condition's From side
	// (candidates expand T-subclusters); reverse expands F-subclusters.
	forward bool
}

func buildWCOJPlan(db *gdb.Snap, conds []Cond, order []int) (*wcojPlan, error) {
	if len(order) == 0 || len(conds) == 0 {
		return nil, fmt.Errorf("rjoin: wcoj: empty variable order or condition set")
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		if _, dup := pos[n]; dup {
			return nil, fmt.Errorf("rjoin: wcoj: node %d repeated in variable order %v", n, order)
		}
		pos[n] = i
	}
	p := &wcojPlan{order: order, levels: make([]wcojLevel, len(order))}
	for i, n := range order {
		p.levels[i].node = n
	}
	for _, c := range conds {
		pf, okF := pos[c.FromNode]
		pt, okT := pos[c.ToNode]
		if !okF || !okT {
			return nil, fmt.Errorf("rjoin: wcoj: condition %v not covered by variable order %v", c, order)
		}
		if pf < pt {
			// From binds first: its level prunes against π_From, the To
			// level intersects From's forward targets.
			proj, err := db.ProjectFrom(c.FromLabel, c.ToLabel)
			if err != nil {
				return nil, err
			}
			p.levels[pf].proj = append(p.levels[pf].proj, proj)
			p.levels[pt].bound = append(p.levels[pt].bound, wcojBound{cond: c, level: pf, forward: true})
		} else {
			proj, err := db.ProjectTo(c.FromLabel, c.ToLabel)
			if err != nil {
				return nil, err
			}
			p.levels[pt].proj = append(p.levels[pt].proj, proj)
			p.levels[pf].bound = append(p.levels[pf].bound, wcojBound{cond: c, level: pt, forward: false})
		}
	}
	for i := range p.levels {
		if len(p.levels[i].proj) == 0 && len(p.levels[i].bound) == 0 {
			return nil, fmt.Errorf("rjoin: wcoj: variable %d unconstrained in order %v (pattern not connected through the order)", p.levels[i].node, order)
		}
	}
	return p, nil
}

// wcojTargets is one bound constraint's partner lookup on the operator's
// read path, with a single-entry memo in front: the bound endpoint's value
// only changes when its (earlier) level advances, so one entry gives full
// reuse across the entire subtree enumerated underneath it.
type wcojTargets struct {
	partners partnerFunc
	valid    bool
	value    graph.NodeID
	targets  []graph.NodeID
}

// wcojRun is one WCOJ's enumeration state.
type wcojRun struct {
	rt   *Runtime
	plan *wcojPlan
	out  *Table
	cc   cancelCheck
	// done is set once the enumeration holds limit+1 rows under a
	// pushed-down limit (see Runtime.PushLimit).
	done bool

	binding []graph.NodeID
	// cand/alt are per-level intersection double-buffers.
	cand [][]graph.NodeID
	alt  [][]graph.NodeID
	memo [][]wcojTargets
	// lists is the reusable per-level constraint-list collection buffer.
	lists [][]graph.NodeID

	seeks, nexts int64
}

func newWCOJRun(rt *Runtime, rd reads, plan *wcojPlan, cc cancelCheck) (*wcojRun, error) {
	n := len(plan.levels)
	r := &wcojRun{
		rt:      rt,
		plan:    plan,
		cc:      cc,
		binding: make([]graph.NodeID, n),
		cand:    make([][]graph.NodeID, n),
		alt:     make([][]graph.NodeID, n),
		memo:    make([][]wcojTargets, n),
	}
	for i := range plan.levels {
		r.memo[i] = make([]wcojTargets, len(plan.levels[i].bound))
		for j, b := range plan.levels[i].bound {
			var err error
			if r.memo[i][j].partners, err = rd.partners(b.cond, b.forward); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// targets returns the partner list of bound constraint j at level k under
// the current binding — Fetch's per-row expansion — through the single-entry
// memo.
func (r *wcojRun) targets(k, j int) ([]graph.NodeID, error) {
	v := r.binding[r.plan.levels[k].bound[j].level]
	m := &r.memo[k][j]
	if m.valid && m.value == v {
		return m.targets, nil
	}
	targets, err := m.partners(v)
	if err != nil {
		return nil, err
	}
	r.seeks++
	m.valid, m.value, m.targets = true, v, targets
	return targets, nil
}

// candidates computes level k's candidate values under the current binding:
// the multiway intersection of every constraint list, smallest pair first
// so the running intersection shrinks as fast as possible before the
// galloping passes over the larger lists.
func (r *wcojRun) candidates(k int) ([]graph.NodeID, error) {
	lv := &r.plan.levels[k]
	lists := append(r.lists[:0], lv.proj...)
	for j := range lv.bound {
		t, err := r.targets(k, j)
		if err != nil {
			return nil, err
		}
		lists = append(lists, t)
	}
	r.lists = lists
	r.seeks += int64(len(lists))
	slices.SortStableFunc(lists, func(a, b []graph.NodeID) int { return len(a) - len(b) })
	if len(lists[0]) == 0 {
		return nil, nil
	}
	if len(lists) == 1 {
		r.nexts += int64(len(lists[0]))
		return lists[0], nil
	}
	cur := gdb.IntersectTo(r.cand[k], lists[0], lists[1])
	buf := r.alt[k]
	for _, l := range lists[2:] {
		if len(cur) == 0 {
			break
		}
		buf = gdb.IntersectTo(buf, cur, l)
		cur, buf = buf, cur
	}
	r.cand[k], r.alt[k] = cur, buf
	r.nexts += int64(len(cur))
	return cur, nil
}

// enumerate walks level k's candidate list, emitting full bindings at the
// last level and recursing otherwise. Each candidate charges one
// cancellation work unit; emitted rows are validated against the budget's
// intermediate-row cap per candidate batch.
func (r *wcojRun) enumerate(k int, cand []graph.NodeID) error {
	if err := r.cc.tickN(len(cand)); err != nil {
		return err
	}
	if k == len(r.plan.levels)-1 {
		for _, v := range cand {
			r.binding[k] = v
			row := r.out.NewRow()
			copy(row, r.binding)
			r.out.Rows = append(r.out.Rows, row)
			if r.rt.pastLimit(len(r.out.Rows)) {
				r.done = true
				return nil
			}
		}
		return r.rt.budget.CheckRows(len(r.out.Rows))
	}
	for _, v := range cand {
		r.binding[k] = v
		next, err := r.candidates(k + 1)
		if err != nil {
			return err
		}
		if len(next) == 0 {
			continue
		}
		if err := r.enumerate(k+1, next); err != nil {
			return err
		}
		if r.done {
			return nil
		}
	}
	return nil
}

// WCOJ evaluates all conds in one worst-case-optimal multiway R-join,
// binding the pattern variables in the given global order. Every condition
// endpoint must appear in order; every variable must have at least one
// incident condition (the pattern must be connected through the order —
// otherwise the join would be a cross product, which WCOJ refuses to
// build). The result's columns are order itself and its rows are distinct
// and lexicographically sorted.
func (rt *Runtime) WCOJ(ctx context.Context, db *gdb.Snap, conds []Cond, order []int) (*Table, error) {
	plan, err := buildWCOJPlan(db, conds, order)
	if err != nil {
		return nil, err
	}
	rd := rt.open(db)
	defer rd.done()
	r, err := newWCOJRun(rt, rd, plan, rt.check(ctx))
	if err != nil {
		return nil, err
	}
	rt.ops++
	r.out = rt.newTable(plan.order...)
	// The first level's candidates are intersections of snapshot-memoized
	// projections only.
	c0, err := r.candidates(0)
	if err == nil {
		err = r.enumerate(0, c0)
	}
	rt.seeks += r.seeks
	rt.iterNexts += r.nexts
	if err != nil {
		return nil, err
	}
	return rt.finishOp(r.out)
}
