package reach

import (
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// Incremental maintains a 2-hop-style reachability labeling under edge
// insertions and deletions — the 2-hop cover update problem the paper
// cites as [24] (Schenkel et al., ICDE'05). It seeds from a computed cover
// or from stored label lists and keeps the invariant that u ⇝ v iff
// out(u) ∩ in(v) ≠ ∅ (with the compact self convention) after every
// InsertEdge and DeleteEdge. The repair arguments below never appeal to
// how the seed labeling was constructed — only to its validity.
//
// The update strategy for a new edge (u, v) follows the classic
// center-insertion argument: every newly reachable pair (x, y) decomposes
// as x ⇝ u → v ⇝ y, so electing u as a center and adding
//
//	u ∈ out(x) for every x with x ⇝ u
//	u ∈ in(y)  for every y with v ⇝ y
//
// restores the cover. If v ⇝ u held before the insertion the labeling is
// already complete (the edge closes a cycle whose pairs were reachable),
// and membership checks skip entries that already exist, so repeated or
// redundant insertions are cheap.
//
// Deletions use the standard over-delete/re-insert repair. Removing (u, v)
// can only break pairs (x, y) with x ∈ Ru = rev-reach(u) and
// y ∈ Fv = fwd-reach(v) (both taken before the removal): any path that
// used the edge entered it through u and left it through v. The same
// localisation bounds the stale entries — an entry c ∈ out(x) whose every
// support path used (u, v) forces x ∈ Ru and c ∈ Fv, and symmetrically for
// in-entries — so DeleteEdge validates exactly those suspects with one
// pruned BFS per affected center in the post-deletion graph, removes the
// refuted ones, and then re-covers any still-reachable pair in Ru × Fv the
// removals orphaned by electing the pair's source as a center (mirroring
// the insertion argument).
type Incremental struct {
	fwd, rev [][]graph.NodeID
	in, out  [][]graph.NodeID
	size     int

	// seen[v] == stamp marks v visited by the running bfs; each bfs takes a
	// fresh stamp, so the array is cleared only when the stamp wraps.
	seen  []uint32
	stamp uint32
}

// NewIncremental seeds an updatable labeling from a computed cover and its
// graph's adjacency.
func NewIncremental(idx *twohop.Cover) *Incremental {
	g := idx.Graph()
	n := g.NumNodes()
	inc := &Incremental{
		fwd:  make([][]graph.NodeID, n),
		rev:  make([][]graph.NodeID, n),
		in:   make([][]graph.NodeID, n),
		out:  make([][]graph.NodeID, n),
		size: idx.Size(),
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		inc.fwd[v] = append([]graph.NodeID(nil), g.Successors(v)...)
		inc.rev[v] = append([]graph.NodeID(nil), g.Predecessors(v)...)
		inc.in[v] = append([]graph.NodeID(nil), idx.In(v)...)
		inc.out[v] = append([]graph.NodeID(nil), idx.Out(v)...)
	}
	return inc
}

// NewIncrementalFromLabels seeds an updatable labeling from g's adjacency
// and already-materialised compact label lists (sorted ascending, excluding
// the node itself) — the form stored in the graph database's base tables,
// so a reattached database can resume incremental maintenance without the
// original index object. The label slices are copied.
func NewIncrementalFromLabels(g *graph.Graph, in, out [][]graph.NodeID) *Incremental {
	n := g.NumNodes()
	if len(in) != n || len(out) != n {
		panic("reach: NewIncrementalFromLabels: label lists do not match graph size")
	}
	inc := &Incremental{
		fwd: make([][]graph.NodeID, n),
		rev: make([][]graph.NodeID, n),
		in:  make([][]graph.NodeID, n),
		out: make([][]graph.NodeID, n),
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		inc.fwd[v] = append([]graph.NodeID(nil), g.Successors(v)...)
		inc.rev[v] = append([]graph.NodeID(nil), g.Predecessors(v)...)
		inc.in[v] = append([]graph.NodeID(nil), in[v]...)
		inc.out[v] = append([]graph.NodeID(nil), out[v]...)
		inc.size += len(in[v]) + len(out[v])
	}
	return inc
}

// NumNodes returns the number of nodes.
func (inc *Incremental) NumNodes() int { return len(inc.fwd) }

// Size returns the current labeling size |H| (compact entries).
func (inc *Incremental) Size() int { return inc.size }

// In returns the compact L_in(v) (sorted; aliases internal storage).
func (inc *Incremental) In(v graph.NodeID) []graph.NodeID { return inc.in[v] }

// Out returns the compact L_out(v) (sorted; aliases internal storage).
func (inc *Incremental) Out(v graph.NodeID) []graph.NodeID { return inc.out[v] }

// Reaches reports u ⇝ v under all insertions so far.
func (inc *Incremental) Reaches(u, v graph.NodeID) bool {
	if u == v {
		return true
	}
	if intersectSorted(inc.out[u], inc.in[v]) {
		return true
	}
	if containsSorted(inc.in[v], u) {
		return true
	}
	return containsSorted(inc.out[u], v)
}

// InsertEdge adds the edge u→v and repairs the labeling. It returns the
// label entries added, in deterministic order (out-side entries in BFS
// order from u over predecessors, then in-side entries in BFS order from v
// over successors); nil when the edge adds no new reachability. The count
// of new entries is len of the returned set.
func (inc *Incremental) InsertEdge(u, v graph.NodeID) []LabelDelta {
	alreadyReachable := inc.Reaches(u, v)
	inc.fwd[u] = append(inc.fwd[u], v)
	inc.rev[v] = append(inc.rev[v], u)
	if alreadyReachable {
		return nil // no new pairs: x ⇝ u ⇝ v ⇝ y held before
	}
	var deltas []LabelDelta
	// u becomes a center: into out(x) for all x reaching u…
	for _, x := range inc.bfs(inc.rev, u) {
		if x != u && insertSortedInPlace(&inc.out[x], u) {
			deltas = append(deltas, LabelDelta{Node: x, Center: u, Out: true})
		}
	}
	// …and into in(y) for all y reachable from v.
	for _, y := range inc.bfs(inc.fwd, v) {
		if y != u && insertSortedInPlace(&inc.in[y], u) {
			deltas = append(deltas, LabelDelta{Node: y, Center: u, Out: false})
		}
	}
	inc.size += len(deltas)
	return deltas
}

// HasEdge reports whether at least one u→v edge is currently present.
func (inc *Incremental) HasEdge(u, v graph.NodeID) bool {
	return slices.Contains(inc.fwd[u], v)
}

// DeleteEdge removes one occurrence of the edge u→v and repairs the
// labeling by over-delete/re-insert:
//
//  1. Suspect entries — out-entries c ∈ out(x) with x ∈ Ru, c ∈ Fv and
//     in-entries c ∈ in(y) with y ∈ Fv, c ∈ Ru, the only ones whose every
//     support path can have used (u, v) — are validated with one pruned
//     re-BFS per affected center in the post-deletion graph; entries the
//     BFS no longer supports are removed (Removed deltas).
//  2. Still-reachable pairs in Ru × Fv the removals left uncovered are
//     repaired by electing the source as a center: x joins in(y)
//     (addition deltas). Reachability was just verified, so every
//     re-added entry is sound.
//
// Deltas come out in deterministic order: removals for ascending x then
// ascending y (centers in stored-label order), followed by additions for
// ascending (x, y). Deleting an edge that is not present is a no-op
// returning nil; when parallel u→v edges exist exactly one is removed and
// no label entry can go stale, so the repair finds nothing to do.
func (inc *Incremental) DeleteEdge(u, v graph.NodeID) []LabelDelta {
	i := slices.Index(inc.fwd[u], v)
	if i < 0 {
		return nil
	}
	// Ru / Fv in the pre-deletion graph: the only nodes whose labels or
	// pair coverage the removal can affect. Membership is a binary search.
	ru := inc.sortedBFS(inc.rev, u)
	fv := inc.sortedBFS(inc.fwd, v)
	inc.fwd[u] = slices.Delete(inc.fwd[u], i, i+1)
	j := slices.Index(inc.rev[v], u)
	inc.rev[v] = slices.Delete(inc.rev[v], j, j+1)

	// Post-deletion reach sets, one pruned BFS per distinct root, sorted
	// and shared between validation and re-cover.
	fwdReach := make(map[graph.NodeID][]graph.NodeID)
	revReach := make(map[graph.NodeID][]graph.NodeID)
	reach := func(memo map[graph.NodeID][]graph.NodeID, adj [][]graph.NodeID, s graph.NodeID) []graph.NodeID {
		r, ok := memo[s]
		if !ok {
			r = inc.sortedBFS(adj, s)
			memo[s] = r
		}
		return r
	}

	var deltas []LabelDelta
	removed := 0
	for _, x := range ru {
		var drop []graph.NodeID
		for _, c := range inc.out[x] {
			if !containsSorted(fv, c) {
				continue
			}
			if !containsSorted(reach(revReach, inc.rev, c), x) {
				drop = append(drop, c)
			}
		}
		for _, c := range drop {
			removeSortedInPlace(&inc.out[x], c)
			deltas = append(deltas, LabelDelta{Node: x, Center: c, Out: true, Removed: true})
			removed++
		}
	}
	for _, y := range fv {
		var drop []graph.NodeID
		for _, c := range inc.in[y] {
			if !containsSorted(ru, c) {
				continue
			}
			if !containsSorted(reach(fwdReach, inc.fwd, c), y) {
				drop = append(drop, c)
			}
		}
		for _, c := range drop {
			removeSortedInPlace(&inc.in[y], c)
			deltas = append(deltas, LabelDelta{Node: y, Center: c, Out: false, Removed: true})
			removed++
		}
	}

	// Re-cover: removing a stale center can orphan a pair it alone
	// covered; any such pair lies in Ru × Fv and is still reachable.
	added := 0
	for _, x := range ru {
		r := reach(fwdReach, inc.fwd, x)
		for _, y := range fv {
			if y == x || !containsSorted(r, y) {
				continue
			}
			if inc.Reaches(x, y) {
				continue
			}
			insertSortedInPlace(&inc.in[y], x)
			deltas = append(deltas, LabelDelta{Node: y, Center: x, Out: false, Removed: false})
			added++
		}
	}
	inc.size += added - removed
	return deltas
}

// sortedBFS is bfs with its result sorted ascending.
func (inc *Incremental) sortedBFS(adj [][]graph.NodeID, start graph.NodeID) []graph.NodeID {
	r := inc.bfs(adj, start)
	slices.Sort(r)
	return r
}

// bfs returns all nodes reachable from start over adj (including start),
// in visiting order.
func (inc *Incremental) bfs(adj [][]graph.NodeID, start graph.NodeID) []graph.NodeID {
	if inc.seen == nil {
		inc.seen = make([]uint32, len(adj))
	}
	inc.stamp++
	if inc.stamp == 0 { // wrapped: marks of old runs would read as visits
		clear(inc.seen)
		inc.stamp = 1
	}
	mark := inc.stamp
	inc.seen[start] = mark
	queue := []graph.NodeID{start}
	for i := 0; i < len(queue); i++ {
		for _, w := range adj[queue[i]] {
			if inc.seen[w] != mark {
				inc.seen[w] = mark
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// removeSortedInPlace removes v from the sorted slice if present,
// reporting whether a removal happened.
func removeSortedInPlace(s *[]graph.NodeID, v graph.NodeID) bool {
	sl := *s
	i, found := slices.BinarySearch(sl, v)
	if !found {
		return false
	}
	*s = slices.Delete(sl, i, i+1)
	return true
}

// insertSortedInPlace inserts v into the sorted slice if absent, reporting
// whether an insertion happened.
func insertSortedInPlace(s *[]graph.NodeID, v graph.NodeID) bool {
	sl := *s
	i, found := slices.BinarySearch(sl, v)
	if found {
		return false
	}
	sl = append(sl, 0)
	copy(sl[i+1:], sl[i:])
	sl[i] = v
	*s = sl
	return true
}
