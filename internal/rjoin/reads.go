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
	// reaches tests u ⇝ v from graph codes.
	reaches(u, v graph.NodeID) (bool, error)
	// prepare loads what semijoin needs for one R-semijoin group, once per
	// operator; semijoin then reports whether a value bound to the group's
	// node survives every condition (see Runtime.FilterGroup).
	prepare(g *semijoinGroup) error
	semijoin(g *semijoinGroup, v graph.NodeID) (bool, error)
	// done folds the reader's lookup counters into the runtime's.
	done()
}

type partnerFunc func(v graph.NodeID) ([]graph.NodeID, error)

// semijoinGroup is one R-semijoin group's state: its conditions, which
// code side they read, each condition's W(X, Y), and — on the decoded
// path — each condition's bound-side distinct projection.
type semijoinGroup struct {
	conds   []Cond
	outSide bool
	wss     [][]graph.NodeID
	projs   []*gdb.NodeSet
}

// open returns the read path for one operator over db: the snapshot's
// decoded per-epoch memos, or — for a runtime the executor switched to
// the counted-I/O reference mode — the buffer pool.
func (rt *Runtime) open(db *gdb.Snap) reads {
	if rt.countIO {
		return pooledReads{db}
	}
	return &decodedReads{rt: rt, db: db, r: db.Reader()}
}

// decodedReads reads through gdb.Reader: decoded subclusters, partner
// tables and graph codes memoised per epoch, shared by every query on the
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

func (d *decodedReads) reaches(u, v graph.NodeID) (bool, error) { return d.r.Reaches(u, v) }

func (d *decodedReads) prepare(g *semijoinGroup) (err error) {
	g.projs, err = projections(d.db, g.conds, g.outSide)
	return err
}

// projections loads each condition's bound-side distinct projection — π_X
// of X→Y for out-codes, π_Y for in-codes — from the snapshot's memo: the
// set of values that pass the condition's R-semijoin (see semijoin). The
// sets are shared and must not be mutated.
func projections(db *gdb.Snap, conds []Cond, outSide bool) ([]*gdb.NodeSet, error) {
	projs := make([]*gdb.NodeSet, len(conds))
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
// node's label, so the group reduces to one bit test per condition, with no
// per-row code fetch at all.
func (d *decodedReads) semijoin(g *semijoinGroup, v graph.NodeID) (bool, error) {
	for _, p := range g.projs {
		if !p.Has(v) {
			return false, nil
		}
	}
	return true, nil
}

func (d *decodedReads) done() {
	d.rt.memoHits += d.r.Hits
	d.rt.memoMisses += d.r.Misses
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

func (p pooledReads) reaches(u, v graph.NodeID) (bool, error) { return p.db.Reaches(u, v) }

func (p pooledReads) code(v graph.NodeID, out bool) ([]graph.NodeID, error) {
	if out {
		return p.db.OutCode(v)
	}
	return p.db.InCode(v)
}

func (pooledReads) prepare(*semijoinGroup) error { return nil }

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
