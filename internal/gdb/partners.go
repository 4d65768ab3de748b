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
//
// A table keeps a second slot array beside the lists: the rank bitmap
// (RankSet) of a slot's list, built on a fused Selection's first use of it
// and only for a list long enough that its bitmap is no larger than the
// list itself. A bitmap is published, charged and carried by the same
// rules as its list — the same touched slots are cleared in both arrays —
// and ranks never change, so a carried bitmap stays exact.

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

	// sets holds the bitmaps of the slots' lists, by the same rank. A
	// bitmap spans the target label's extent of targets nodes, so only a
	// list of at least minList = 2·RankWords(targets) entries gets one.
	sets             slotArray[RankSet]
	targets, minList int
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

// charge is the table's memo-budget charge: its slots, plus the lists and
// bitmaps its chunks hold.
func (t *partnerTable) charge() int64 {
	_, lists := t.slots.held()
	_, sets := t.sets.held()
	return int64(partnerSlotCost*t.n) + lists + sets
}

// newPartnerTable returns the empty table of key over W row ws.
func (s *Snap) newPartnerTable(k partnerKey, ws []graph.NodeID) *partnerTable {
	t := &partnerTable{key: k, bound: k.x, ws: ws, rank: s.db.rank}
	target := k.y
	if !k.forward {
		t.bound, target = k.y, k.x
	}
	t.n = s.g.ExtentSize(t.bound)
	t.slots, t.sets = newSlotArray[partnerList](t.n), newSlotArray[RankSet](t.n)
	t.targets = s.g.ExtentSize(target)
	t.minList = max(2*RankWords(t.targets), 1)
	return t
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
		t = s.newPartnerTable(k, ws)
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
	if !p.t.slots.replace(i, nil, l, l.cost()) {
		return p.t.slots.load(i).nodes, nil // a concurrent reader filled it first
	}
	p.r.s.chargeFill(p.t, l.cost())
	return list, nil
}

// chargeFill charges the epoch for cost units that a fill just published
// in t, forgetting every table if that would pass the memo bound. A table
// the epoch no longer holds is not charged: it dies with its queries.
func (s *Snap) chargeFill(t *partnerTable, cost int64) {
	s.pmu.Lock()
	if s.ptabs[t.key] == t {
		if s.pNodes+int(cost) > s.db.memoBound {
			s.forgetPartners()
		} else {
			s.pNodes += int(cost)
		}
	}
	s.pmu.Unlock()
}

// Bitmap returns the rank bitmap of list, which must be what Of(v)
// returned: a set over the target label's ranks (see RankSet) that tests a
// candidate with one rank load and one word load where IntersectTo walks
// the list. The first call for v builds and publishes it; later calls, by
// any query on the epoch or on a successor that carried it, load it. It
// returns nil for a list shorter than twice the bitmap's words, whose
// bitmap would be larger than the list, and for a v outside the bound
// label, which owns no slot. A zero Partners has no bitmaps.
func (p Partners) Bitmap(v graph.NodeID, list []graph.NodeID) *RankSet {
	if p.t == nil || len(list) < p.t.minList {
		return nil
	}
	return p.bitmap(v, list)
}

func (p Partners) bitmap(v graph.NodeID, list []graph.NodeID) *RankSet {
	s, t := p.r.s, p.t
	if s.g.LabelOf(v) != t.bound {
		return nil
	}
	i := int(t.rank[v])
	if set := t.sets.load(i); set != nil {
		return set
	}
	set := newRankSet(Ranks{t.rank}, t.targets, list)
	if !t.sets.replace(i, nil, set, set.cost()) {
		return t.sets.load(i) // a concurrent reader built it first
	}
	s.chargeFill(t, set.cost())
	return set
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
