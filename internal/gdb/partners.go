package gdb

import (
	"encoding/binary"
	"fmt"
	"slices"

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
//
// A filtered table is a partner table's lists cut down by one R-semijoin
// group on the node they bind (Partners.Semijoin): slot i holds the base
// table's slot i less the nodes some of the group's projections lack, and
// the length of the unfiltered list, so a Fetch that absorbed the group
// reads its survivors and its logical expansion with one load. A list is
// filtered on first use (RankSet.FilterTo) and published, charged and
// carried by the same rules as the base's; one that loses nothing aliases
// the base's list. A second group chains onto the first group's table. A
// publish carries a filtered table only if every projection it reads was
// carried unchanged (inheritProjections kept the very set), and then
// clears the slots its base clears; otherwise it is dropped.

// partnerKey names a table: condition X→Y read from its From side
// (forward: Y-labeled partners through out-codes and T-subclusters) or its
// To side, and for a filtered table the semijoin groups its lists pass, in
// chain order (groupKey), "" for none.
type partnerKey struct {
	x, y    graph.Label
	forward bool
	groups  string
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

	// A filtered table's slot i is base's slot i filtered by projs, the
	// projections named by projKeys (π_X of each pair when out, else π_Y);
	// depth counts the groups of its chain, 0 in a partner table.
	base     *partnerTable
	projs    []*RankSet
	projKeys []wKey
	out      bool
	depth    uint8
}

// partnerList is what a filled slot points to. A value with one center
// aliases that center's subcluster in the decoded index; a union of
// several is owned by the slot and charged to the memo budget. In a
// filtered table, a list that kept every entry is its base's list, and a
// shorter one is owned; full is the length of the partner table's list it
// was cut from (in a partner table, its own), and layer the depth of the
// table that made it.
type partnerList struct {
	nodes []graph.NodeID
	owned bool
	layer uint8
	full  int32
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

// cost is what list l costs table t: nothing for an empty list or for one
// an earlier table of t's chain made (that table is charged for it), and
// otherwise its header, plus its capacity when the slot owns it.
func (t *partnerTable) cost(l *partnerList) int64 {
	switch {
	case len(l.nodes) == 0 || l.layer != t.depth:
		return 0
	case l.owned:
		return int64(partnerListCost + cap(l.nodes))
	}
	return partnerListCost
}

// noPartners fills the slots of values that join nothing, and emptied[n]
// a filtered table's slot whose list of n < 64 entries kept none.
var (
	noPartners = new(partnerList)
	emptied    = func() (ls [64]partnerList) {
		for n := range ls {
			ls[n].full = int32(n)
		}
		return ls
	}()
)

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
	s := r.s
	t, err := s.table(partnerKey{x: x, y: y, forward: forward}, func(k partnerKey) (*partnerTable, error) {
		ws, err := s.Centers(x, y)
		if err != nil {
			return nil, err
		}
		return s.newPartnerTable(k, ws), nil
	})
	return Partners{r, t}, err
}

// Semijoin resolves the filtered table of p's lists by one R-semijoin
// group on the node they bind, creating it (empty) on the epoch's first
// use: pairs are the group's conditions X→Y, read from that node's
// out-codes (out: the node is X, and a list keeps the members of π_X(X→Y))
// or in-codes (π_Y). Chained on a filtered p, it filters by both groups.
func (p Partners) Semijoin(pairs [][2]graph.Label, out bool) (Partners, error) {
	s, base := p.r.s, p.t
	k := base.key
	k.groups = groupKey(k.groups, pairs, out)
	t, err := s.table(k, func(k partnerKey) (*partnerTable, error) {
		t := *base
		t.key, t.slots, t.sets = k, newSlotArray[partnerList](t.n), newSlotArray[RankSet](t.n)
		t.base, t.out, t.depth = base, out, base.depth+1
		t.projs, t.projKeys = make([]*RankSet, len(pairs)), make([]wKey, len(pairs))
		for i, xy := range pairs {
			project, side := s.ProjectTo, xy[1]
			if out {
				project, side = s.ProjectFrom, xy[0]
			}
			if side != target(base.key) {
				return nil, fmt.Errorf("gdb: semijoin %d->%d does not bind the %d-labeled lists of %d->%d", xy[0], xy[1], target(base.key), k.x, k.y)
			}
			var err error
			if t.projs[i], err = project(xy[0], xy[1]); err != nil {
				return nil, err
			}
			t.projKeys[i] = wKey{xy[0], xy[1]}
		}
		return &t, nil
	})
	return Partners{p.r, t}, err
}

// target returns the label of the nodes a table's lists hold.
func target(k partnerKey) graph.Label {
	if k.forward {
		return k.y
	}
	return k.x
}

// groupKey appends one semijoin group to the groups of a table's key.
func groupKey(groups string, pairs [][2]graph.Label, out bool) string {
	b := []byte(groups)
	b = append(b, '(')
	if out {
		b = append(b, '>')
	}
	for _, xy := range pairs {
		b = binary.LittleEndian.AppendUint32(b, uint32(xy[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(xy[1]))
	}
	return string(append(b, ')'))
}

// table returns the epoch's table of key k, creating it with build on
// first use and charging its slots.
func (s *Snap) table(k partnerKey, build func(partnerKey) (*partnerTable, error)) (*partnerTable, error) {
	s.pmu.Lock()
	t := s.ptabs[k]
	s.pmu.Unlock()
	if t != nil {
		return t, nil
	}
	t, err := build(k)
	if err != nil {
		return nil, err
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if won := s.ptabs[k]; won != nil {
		return won, nil
	}
	if s.pNodes+partnerSlotCost*t.n > s.db.memoBound {
		s.forgetPartners()
	}
	if s.ptabs == nil {
		s.ptabs = make(map[partnerKey]*partnerTable)
	}
	s.ptabs[k] = t
	s.pNodes += partnerSlotCost * t.n
	return t, nil
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
// node of the other label that v reaches (forward) or that reaches v, and
// in a filtered table only those its groups keep. The slice is shared and
// must not be mutated.
func (p Partners) Of(v graph.NodeID) ([]graph.NodeID, error) {
	return p.slot(v).nodes, nil
}

// Lookup is Of that also returns the length of the unfiltered list: of
// the partner table's list a filtered table's is cut from, or of the
// list itself.
func (p Partners) Lookup(v graph.NodeID) (list []graph.NodeID, full int, err error) {
	l := p.slot(v)
	return l.nodes, int(l.full), nil
}

func (p Partners) slot(v graph.NodeID) *partnerList {
	s := p.r.s
	if s.g.LabelOf(v) != p.t.bound {
		// Not a node of the bound label: its rank would name another
		// node's slot. Compute the list as Algorithm 2 does, unmemoized.
		return p.t.cold(s, v)
	}
	i := int(p.t.rank[v])
	if l := p.t.slots.load(i); l != nil {
		p.r.CenterHits++
		return l
	}
	return p.fill(i, v)
}

func (p Partners) fill(i int, v graph.NodeID) *partnerList {
	p.r.CenterMisses++
	t := p.t
	var l *partnerList
	if t.base == nil {
		l = t.compute(p.r.s, v)
	} else {
		l = t.filter(Partners{p.r, t.base}.slot(v), &p.r.buf)
	}
	if !t.slots.replace(i, nil, l, t.cost(l)) {
		return t.slots.load(i) // a concurrent reader filled it first
	}
	p.r.s.chargeFill(t, t.cost(l))
	return l
}

// cold returns v's list computed from s's decoded index, unmemoized.
func (t *partnerTable) cold(s *Snap, v graph.NodeID) *partnerList {
	if t.base == nil {
		return t.compute(s, v)
	}
	var buf []graph.NodeID
	return t.filter(t.base.cold(s, v), &buf)
}

// filter returns the list of a filtered table's slot whose base slot holds
// src: its nodes in every projection, filtered in the scratch list buf
// and copied out at their size — src itself if none was dropped.
func (t *partnerTable) filter(src *partnerList, buf *[]graph.NodeID) *partnerList {
	if len(src.nodes) == 0 {
		return src
	}
	keep := src.nodes
	for j, set := range t.projs {
		dst := keep[:0]
		if j == 0 {
			dst = slices.Grow((*buf)[:0], len(keep))
		}
		keep = set.FilterTo(Ranks{t.rank}, dst, keep)
		*buf = keep[:0]
	}
	switch {
	case len(keep) == len(src.nodes):
		return src
	case len(keep) > 0:
		return &partnerList{nodes: slices.Clone(keep), owned: true, layer: t.depth, full: src.full}
	case int(src.full) < len(emptied):
		return &emptied[src.full]
	}
	return &partnerList{layer: t.depth, full: src.full}
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

// Lists returns the table's re-read handle (see PartnerLists).
func (p Partners) Lists() PartnerLists { return PartnerLists{p.r.s, p.t} }

// PartnerLists re-reads the lists a Partners handle returned, for a
// consumer that keeps the bound values instead of the lists: a factorised
// result's expanded column. Of(v) returns the very slice Partners.Of(v)
// returned once that call was made — a filled slot never changes within a
// table (a publish gives the successor new chunks, and forgetting a table
// only unmaps it) — and holds the table itself, so it stays valid after the
// epoch is retired or its tables are forgotten. It counts nothing and never
// fills a slot, so any goroutine may use it at any time.
type PartnerLists struct {
	s *Snap
	t *partnerTable
}

// Of returns v's partners: the slot's list, or — for a value of another
// label, or one no Partners.Of call has looked up — the same list computed
// from the epoch's decoded index, unmemoized. The slice is shared and must
// not be mutated.
func (l PartnerLists) Of(v graph.NodeID) []graph.NodeID {
	if l.s.g.LabelOf(v) == l.t.bound {
		if pl := l.t.slots.load(int(l.t.rank[v])); pl != nil {
			return pl.nodes
		}
	}
	return l.t.cold(l.s, v).nodes
}

// compute is a partner table's cold path: getCenters from v's code and
// W(X, Y), then the union of the centers' subclusters, all from s's
// decoded index.
func (t *partnerTable) compute(s *Snap, v graph.NodeID) *partnerList {
	in, out := s.codesOf(v)
	code, dir := out, dirT
	if !t.key.forward {
		code, dir = in, dirF
	}
	// The decoded index cannot fail a read, so neither can the union.
	list, owned, _ := UnionOver(Intersect(code, t.ws), func(w graph.NodeID) ([]graph.NodeID, error) {
		return s.subcluster(w, dir, target(t.key)), nil
	})
	if len(list) == 0 {
		return noPartners
	}
	return &partnerList{nodes: list, owned: owned, full: int32(len(list))}
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
