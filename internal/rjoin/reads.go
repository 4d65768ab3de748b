package rjoin

import (
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// reads is the index read path of one operator: how it obtains
// subclusters, a bound value's partners, reachability between two bound
// values, and a semijoin group's keep-test. Both implementations return
// identical lists, so operator output never depends on which one serves
// it. A reads value belongs to one goroutine.
type reads interface {
	// getF/getT return center w's X-labeled F-subcluster / Y-labeled
	// T-subcluster; the slice is shared and must not be mutated.
	getF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error)
	getT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error)
	// partners resolves, once per operator, the per-row lookup of
	// condition c read from its From side (forward) or its To side: for a
	// bound value v, the ascending union of the T_Y-subclusters of the
	// centers out(v) ∩ W(X, Y) (F_X and in(v) reverse). The lists are
	// shared and must not be mutated.
	partners(c Cond, forward bool) (partnerFunc, error)
	// lists resolves the handle a factorised result re-reads the same
	// lists through (gdb.PartnerLists), or reports false where the read
	// path keeps no lists a result could re-read: the result then stores
	// them.
	lists(c Cond, forward bool) (gdb.PartnerLists, bool, error)
	// fold resolves, once per operator, the filtered tables of the same
	// lists by the R-semijoin groups on the node they bind, one per group,
	// each chained on the one before (gdb.Partners.Semijoin); nil where
	// the read path keeps no tables: the Fetch then filters every list
	// itself.
	fold(c Cond, forward bool, groups []NodeFilter) ([]gdb.Partners, error)
	// bitmaps resolves, once per operator, the same lists' rank bitmaps
	// (gdb.Partners.Bitmap); the zero Partners, which has none, where the
	// read path keeps no bitmaps.
	bitmaps(c Cond, forward bool) (gdb.Partners, error)
	// reaches tests u ⇝ v from graph codes.
	reaches(u, v graph.NodeID) (bool, error)
	// prepare loads what semijoin needs for one R-semijoin group, once per
	// operator, and reports whether some condition can never be satisfied;
	// semijoin then reports whether a value bound to the group's node
	// survives every condition (see Runtime.FilterGroup).
	prepare(g *semijoinGroup) (empty bool, err error)
	semijoin(g *semijoinGroup, v graph.NodeID) (bool, error)
	// done folds the reader's lookup counters into the runtime's.
	done()
}

type partnerFunc func(v graph.NodeID) ([]graph.NodeID, error)

// semijoinGroup is one R-semijoin group's state: its conditions, which
// code side they read, and each condition's W(X, Y) — on the decoded path
// its bound-side distinct projection instead, and the rank table the
// projections are tested through.
type semijoinGroup struct {
	conds   []Cond
	outSide bool
	wss     [][]graph.NodeID
	projs   []*gdb.RankSet
	rank    gdb.Ranks
}

// open returns the read path for one operator over db: the snapshot's
// decoded index and partner tables, or — for a runtime the executor
// switched to the counted-I/O reference mode — the buffer pool.
func (rt *Runtime) open(db *gdb.Snap) reads {
	if rt.countIO {
		return pooledReads{db}
	}
	return &decodedReads{rt: rt, db: db, r: db.Reader()}
}

// decodedReads reads through gdb.Reader: the epoch's decoded subclusters
// and graph codes, and its partner tables, shared by every query on the
// snapshot.
type decodedReads struct {
	rt *Runtime
	db *gdb.Snap
	r  *gdb.Reader
}

func (d *decodedReads) getF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return d.r.F(w, x)
}

func (d *decodedReads) getT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return d.r.T(w, y)
}

func (d *decodedReads) partners(c Cond, forward bool) (partnerFunc, error) {
	p, err := d.r.Partners(c.FromLabel, c.ToLabel, forward)
	return p.Of, err
}

func (d *decodedReads) lists(c Cond, forward bool) (gdb.PartnerLists, bool, error) {
	p, err := d.r.Partners(c.FromLabel, c.ToLabel, forward)
	return p.Lists(), true, err
}

func (d *decodedReads) fold(c Cond, forward bool, groups []NodeFilter) ([]gdb.Partners, error) {
	p, err := d.r.Partners(c.FromLabel, c.ToLabel, forward)
	layers := make([]gdb.Partners, len(groups))
	for i, f := range groups {
		if err != nil {
			return nil, err
		}
		pairs := make([][2]graph.Label, len(f.Conds))
		for j, c := range f.Conds {
			pairs[j] = [2]graph.Label{c.FromLabel, c.ToLabel}
		}
		p, err = p.Semijoin(pairs, f.OutSide)
		layers[i] = p
	}
	return layers, err
}

func (d *decodedReads) bitmaps(c Cond, forward bool) (gdb.Partners, error) {
	return d.r.Partners(c.FromLabel, c.ToLabel, forward)
}

func (d *decodedReads) reaches(u, v graph.NodeID) (bool, error) { return d.r.Reaches(u, v) }

// prepare needs no W row: a condition's projection is empty exactly when
// its W row is, since every center of W(X, Y) has a non-empty X-labeled
// F-subcluster and Y-labeled T-subcluster.
func (d *decodedReads) prepare(g *semijoinGroup) (empty bool, err error) {
	g.projs, err = projections(d.db, g.conds, g.outSide)
	g.rank = d.db.Ranks()
	for _, p := range g.projs {
		empty = empty || p.Len() == 0
	}
	return empty, err
}

// projections loads each condition's bound-side distinct projection — π_X
// of X→Y for out-codes, π_Y for in-codes — from the snapshot's memo: the
// set of values that pass the condition's R-semijoin (see semijoin). The
// sets are shared and must not be mutated.
func projections(db *gdb.Snap, conds []Cond, outSide bool) ([]*gdb.RankSet, error) {
	projs := make([]*gdb.RankSet, len(conds))
	for i, c := range conds {
		var err error
		if outSide {
			projs[i], err = db.ProjectFrom(c.FromLabel, c.ToLabel)
		} else {
			projs[i], err = db.ProjectTo(c.FromLabel, c.ToLabel)
		}
		if err != nil {
			return nil, err
		}
	}
	return projs, nil
}

// semijoin tests membership in the memoized distinct projections. The
// per-row code test out(v) ∩ W(X, Y) ≠ ∅ is, for a v carrying the
// condition's bound-side label, exactly membership in π_X(T_X ⋈ T_Y): the
// cluster index defines F(w) = {u : w ∈ out(u)}, so some center of W lies
// in out(v) iff v is in some X-labeled F-subcluster over W (dually for
// in-codes and π_Y). Bound columns only ever hold values of their pattern
// node's label, which every condition of the group gives it (FilterGroup
// checks), so the group reduces to one rank load and one bit test per
// condition, with no per-row code fetch at all.
func (d *decodedReads) semijoin(g *semijoinGroup, v graph.NodeID) (bool, error) {
	for _, p := range g.projs {
		if !p.Has(g.rank, v) {
			return false, nil
		}
	}
	return true, nil
}

func (d *decodedReads) done() {
	d.rt.centerHits += d.r.CenterHits
	d.rt.centerMisses += d.r.CenterMisses
}

// pooledReads is the counted-I/O reference mode (exec.PlanConfig's
// NoFastPath): every subcluster and graph code is fetched through the
// buffer pool per access, as in the paper's disk-resident executor, so a
// step's logical page count is the paper's I/O cost. It is also what the
// differential tests compare the decoded path against.
type pooledReads struct{ db *gdb.Snap }

func (p pooledReads) getF(w graph.NodeID, x graph.Label) ([]graph.NodeID, error) {
	return p.db.GetF(w, x)
}

func (p pooledReads) getT(w graph.NodeID, y graph.Label) ([]graph.NodeID, error) {
	return p.db.GetT(w, y)
}

// partners is Algorithm 2's Fetch as written: per row, one code retrieval,
// getCenters against W(X, Y), and one subcluster read per center.
func (p pooledReads) partners(c Cond, forward bool) (partnerFunc, error) {
	ws, err := p.db.Centers(c.FromLabel, c.ToLabel)
	if err != nil {
		return nil, err
	}
	get := func(w graph.NodeID) ([]graph.NodeID, error) { return p.db.GetT(w, c.ToLabel) }
	if !forward {
		get = func(w graph.NodeID) ([]graph.NodeID, error) { return p.db.GetF(w, c.FromLabel) }
	}
	return func(v graph.NodeID) ([]graph.NodeID, error) {
		code, err := p.code(v, forward)
		if err != nil {
			return nil, err
		}
		list, _, err := gdb.UnionOver(gdb.Intersect(code, ws), get)
		return list, err
	}, nil
}

// lists: a list read through the buffer pool is decoded afresh per call,
// so reading it again would count its I/O twice and need the database
// still open.
func (pooledReads) lists(Cond, bool) (gdb.PartnerLists, bool, error) {
	return gdb.PartnerLists{}, false, nil
}

// fold: the reference mode filters every list by every projection, per
// row, as it stores it.
func (pooledReads) fold(Cond, bool, []NodeFilter) ([]gdb.Partners, error) { return nil, nil }

// bitmaps: the reference mode intersects every list with IntersectTo.
func (pooledReads) bitmaps(Cond, bool) (gdb.Partners, error) { return gdb.Partners{}, nil }

// reaches is the paper's reachability test as written: both codes read
// through the buffer pool.
func (p pooledReads) reaches(u, v graph.NodeID) (bool, error) {
	if u == v {
		return true, nil
	}
	ou, err := p.code(u, true)
	if err != nil {
		return false, err
	}
	iv, err := p.code(v, false)
	return err == nil && gdb.IntersectNonEmpty(ou, iv), err
}

func (p pooledReads) code(v graph.NodeID, out bool) ([]graph.NodeID, error) {
	if out {
		return p.db.GetOut(v)
	}
	return p.db.GetIn(v)
}

func (p pooledReads) prepare(g *semijoinGroup) (empty bool, err error) {
	g.wss = make([][]graph.NodeID, len(g.conds))
	for i, c := range g.conds {
		if g.wss[i], err = p.db.Centers(c.FromLabel, c.ToLabel); err != nil || len(g.wss[i]) == 0 {
			return true, err
		}
	}
	return false, nil
}

// semijoin is Algorithm 2's Filter as written: one code retrieval per row,
// shared by the group's conditions (Remark 3.1).
func (p pooledReads) semijoin(g *semijoinGroup, v graph.NodeID) (bool, error) {
	code, err := p.code(v, g.outSide)
	if err != nil {
		return false, err
	}
	for _, ws := range g.wss {
		if !gdb.IntersectNonEmpty(code, ws) {
			return false, nil
		}
	}
	return true, nil
}

func (pooledReads) done() {}
