package gdb

import "fastmatch/internal/graph"

// Partner tables are the per-row half of the decoded read path. What HPSJ+
// computes for a row (Algorithm 2) is a pure function of the epoch and the
// row's bound value v: getCenters(v, X, Y) = out(v) ∩ W(X, Y) and the union
// of those centers' T_Y-subclusters (dually in(v) and F_X). A partner table
// holds that union for one condition and direction, one slot per node of the
// bound label, addressed by the node's rank in the label's extent — so a
// row costs two array loads and one atomic load, with no hashing and no
// lock. A slot goes from nil to its list exactly once (compare-and-swap) and
// the list is immutable, so any load sees either nothing or the whole
// answer. A publish carries every table into the successor epoch on a new
// chunk directory (snapWriter.inheritPartners): chunks holding no slot the
// batch can have changed are shared, the others are copied with those slots
// nil again, and no slot a reader can see is ever cleared.

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
	n     int            // slots: the bound label's extent
	rank  []int32        // DB.rank, kept here to shorten a row's loads
	slots slotArray[partnerList]
}

// partnerList is what a filled slot points to. A value with one center
// aliases that center's subcluster in the decoded index; a union of
// several is owned by the slot and charged to the memo budget.
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

// charge is the table's memo-budget charge: its slots, plus the lists its
// chunks hold.
func (t *partnerTable) charge() int64 {
	_, lists := t.slots.held()
	return int64(partnerSlotCost*t.n) + lists
}

func (l *partnerList) cost() int64 {
	switch {
	case l == noPartners:
		return 0
	case l.owned:
		return int64(partnerListCost + cap(l.nodes))
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
		t = &partnerTable{key: k, bound: x, ws: ws, rank: s.db.rank}
		if !forward {
			t.bound = y
		}
		t.n = s.g.ExtentSize(t.bound)
		t.slots = newSlotArray[partnerList](t.n)
		s.pmu.Lock()
		if won := s.ptabs[k]; won != nil {
			t = won
		} else {
			if s.pNodes+partnerSlotCost*t.n > s.db.memoBound {
				s.forgetPartners()
			}
			if s.ptabs == nil {
				s.ptabs = make(map[partnerKey]*partnerTable)
			}
			s.ptabs[k] = t
			s.pNodes += partnerSlotCost * t.n
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
	i := int(p.t.rank[v])
	if l := p.t.slots.load(i); l != nil {
		p.r.CenterHits++
		return l.nodes, nil
	}
	return p.fill(i, v)
}

func (p Partners) fill(i int, v graph.NodeID) ([]graph.NodeID, error) {
	p.r.CenterMisses++
	list, owned, err := p.compute(v)
	if err != nil {
		return nil, err
	}
	l := noPartners
	if len(list) > 0 {
		l = &partnerList{list, owned}
	}
	s, t := p.r.s, p.t
	if !t.slots.replace(i, nil, l, l.cost()) {
		return t.slots.load(i).nodes, nil // a concurrent reader filled it first
	}
	s.pmu.Lock()
	if s.ptabs[t.key] == t {
		if cost := int(l.cost()); s.pNodes+cost > s.db.memoBound {
			s.forgetPartners()
		} else {
			s.pNodes += cost
		}
	}
	s.pmu.Unlock()
	return list, nil
}

// compute is the cold path: getCenters from v's code and W(X, Y), then the
// union of the centers' subclusters, all from the decoded index.
func (p Partners) compute(v graph.NodeID) (list []graph.NodeID, owned bool, err error) {
	s, t := p.r.s, p.t
	in, out := s.codesOf(v)
	code, dir, target := out, dirT, t.key.y
	if !t.key.forward {
		code, dir, target = in, dirF, t.key.x
	}
	return UnionOver(Intersect(code, t.ws), func(w graph.NodeID) ([]graph.NodeID, error) {
		return s.subcluster(w, dir, target), nil
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

// Reaches is Snap.Reaches: both codes come from the decoded index, so a
// Selection row takes no lock and no atomic load.
func (r *Reader) Reaches(u, v graph.NodeID) (bool, error) { return r.s.Reaches(u, v) }
