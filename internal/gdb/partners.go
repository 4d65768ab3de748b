package gdb

import (
	"sync/atomic"

	"fastmatch/internal/graph"
)

// Partner tables are the per-row half of the decoded read path. What HPSJ+
// computes for a row (Algorithm 2) is a pure function of the epoch and the
// row's bound value v: getCenters(v, X, Y) = out(v) ∩ W(X, Y) and the union
// of those centers' T_Y-subclusters (dually in(v) and F_X). A partner table
// holds that union for one condition and direction, one slot per node of the
// bound label, addressed by the node's rank in the label's extent — so a
// row costs two array loads and one atomic load, with no hashing and no
// lock. A slot goes from nil to its list exactly once (compare-and-swap) and
// the list is immutable, so any load sees either nothing or the whole
// answer. A successor epoch gets its own slot arrays (snapWriter.
// inheritPartners), so a publish never writes a slot a reader can see.

// partnerKey names a table: condition X→Y read from its From side
// (forward: Y-labeled partners through out-codes and T-subclusters) or its
// To side.
type partnerKey struct {
	x, y    graph.Label
	forward bool
}

type partnerTable struct {
	key   partnerKey
	bound graph.Label    // whose nodes own the slots: x forward, y reverse
	ws    []graph.NodeID // W(X, Y)
	slots []atomic.Pointer[partnerList]
	nodes int // this table's share of Snap.pNodes (pmu)
}

// partnerList is what a filled slot points to. A value with one center
// aliases that center's memoized subcluster; a union of several is owned
// by the slot and charged to the memo budget.
type partnerList struct {
	nodes []graph.NodeID
	owned bool
}

// Memo-budget cost, in node-ID units, of a table's slot and of the
// partnerList a filled slot points to.
const (
	partnerSlotCost = 2
	partnerListCost = 8
)

func (l *partnerList) cost() int {
	switch {
	case l == noPartners:
		return 0
	case l.owned:
		return partnerListCost + cap(l.nodes)
	}
	return partnerListCost
}

// noPartners fills the slots of values that join nothing.
var noPartners = new(partnerList)

// Partners is a Reader's handle on one partner table, resolved once per
// operator: by a Fetch for its own condition and for each Selection it
// absorbed.
type Partners struct {
	r *Reader
	t *partnerTable
}

// Partners resolves the partner table of condition X→Y in one direction,
// creating it (empty) on the epoch's first use.
func (r *Reader) Partners(x, y graph.Label, forward bool) (Partners, error) {
	s, k := r.s, partnerKey{x, y, forward}
	s.pmu.Lock()
	t := s.ptabs[k]
	s.pmu.Unlock()
	if t == nil {
		ws, err := s.Centers(x, y)
		if err != nil {
			return Partners{}, err
		}
		t = &partnerTable{key: k, bound: x, ws: ws}
		if !forward {
			t.bound = y
		}
		t.slots = make([]atomic.Pointer[partnerList], s.g.ExtentSize(t.bound))
		t.nodes = partnerSlotCost * len(t.slots)
		s.pmu.Lock()
		if won := s.ptabs[k]; won != nil {
			t = won
		} else {
			if s.pNodes+t.nodes > s.db.memoBound {
				s.forgetPartners()
			}
			if s.ptabs == nil {
				s.ptabs = make(map[partnerKey]*partnerTable)
			}
			s.ptabs[k] = t
			s.pNodes += t.nodes
		}
		s.pmu.Unlock()
	}
	return Partners{r, t}, nil
}

// forgetPartners drops every partner table of the epoch (pmu held): their
// share of the memo budget would overflow. Queries keep the tables and
// lists they already hold; what they still add to a forgotten table dies
// with them, uncharged.
func (s *Snap) forgetPartners() {
	s.ptabs, s.pNodes = nil, 0
	s.db.memoResets.Add(1)
}

// Of returns v's partners under the table's condition, ascending: every
// node of the other label that v reaches (forward) or that reaches v. The
// slice is shared and must not be mutated.
func (p Partners) Of(v graph.NodeID) ([]graph.NodeID, error) {
	s := p.r.s
	if s.g.LabelOf(v) != p.t.bound {
		// Not a node of the bound label: its rank would name another
		// node's slot. Compute the list as Algorithm 2 does, unmemoized.
		list, _, err := p.compute(v)
		return list, err
	}
	slot := &p.t.slots[s.db.rank[v]]
	if l := slot.Load(); l != nil {
		p.r.Hits++
		p.r.CenterHits++
		return l.nodes, nil
	}
	return p.fill(slot, v)
}

func (p Partners) fill(slot *atomic.Pointer[partnerList], v graph.NodeID) ([]graph.NodeID, error) {
	p.r.Misses++
	p.r.CenterMisses++
	list, owned, err := p.compute(v)
	if err != nil {
		return nil, err
	}
	l := noPartners
	if len(list) > 0 {
		l = &partnerList{list, owned}
	}
	if !slot.CompareAndSwap(nil, l) {
		return slot.Load().nodes, nil // a concurrent reader filled it first
	}
	s, t := p.r.s, p.t
	s.pmu.Lock()
	if s.ptabs[t.key] == t {
		if cost := l.cost(); s.pNodes+cost > s.db.memoBound {
			s.forgetPartners()
		} else {
			t.nodes += cost
			s.pNodes += cost
		}
	}
	s.pmu.Unlock()
	return list, nil
}

// compute is the cold path: getCenters from v's code and W(X, Y), then the
// union of the centers' subclusters through the decoded-subcluster memo.
func (p Partners) compute(v graph.NodeID) (list []graph.NodeID, owned bool, err error) {
	r, t := p.r, p.t
	code, dir, target := r.s.OutCode, dirT, t.key.y
	if !t.key.forward {
		code, dir, target = r.s.InCode, dirF, t.key.x
	}
	c, err := code(v)
	if err != nil {
		return nil, false, err
	}
	return UnionOver(Intersect(c, t.ws), func(w graph.NodeID) ([]graph.NodeID, error) {
		return r.cluster(w, dir, target)
	})
}

// UnionOver returns the ascending union of the lists get yields for the
// centers cs: Algorithm 2's Fetch expansion of one bound value. A single
// non-empty list is returned as it is (shared, owned false); a union of
// several is freshly allocated.
func UnionOver(cs []graph.NodeID, get func(w graph.NodeID) ([]graph.NodeID, error)) (union []graph.NodeID, owned bool, err error) {
	for _, w := range cs {
		nodes, err := get(w)
		if err != nil {
			return nil, false, err
		}
		switch {
		case len(nodes) == 0:
		case len(union) == 0:
			union = nodes
		default:
			union = mergeUnionNodes(make([]graph.NodeID, 0, len(union)+len(nodes)), union, nodes)
			owned = true
		}
	}
	return union, owned, nil
}

// mergeUnionNodes appends the sorted-set union of two ascending duplicate-
// free slices to dst.
func mergeUnionNodes(dst, a, b []graph.NodeID) []graph.NodeID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Reaches is Snap.Reaches: graph codes come from the dense code cache, so a
// Selection row takes no lock either.
func (r *Reader) Reaches(u, v graph.NodeID) (bool, error) { return r.s.Reaches(u, v) }
