package gdb

import "fastmatch/internal/graph"

// inversion is the cover inverted into subcluster segments: for dense
// center index ci, direction dir ∈ {dirF, dirT}, and label l, the
// subcluster members are
//
//	members[offsets[s]:offsets[s+1]],  s = (ci·2 + dir)·nLabels + l
//
// sorted ascending by node ID. Slots are laid out in cluster-key order —
// (center asc, dir F then T, label asc) — so walking slots in order yields
// the cluster index's sorted key stream.
type inversion struct {
	centers []graph.NodeID // ascending; centers[ci] is the node for index ci
	nLabels int
	offsets []int32
	members []graph.NodeID
}

// invertCover computes the per-center, per-label F-/T-subclusters of the
// cover with a counting sort instead of a map-of-maps:
//
//	Phase 0  mark the center set — every node appearing in at least one
//	         stored code — and assign dense center indices in ascending
//	         node order.
//	Phase 1  count, per (center, dir, label) slot, the entries each node
//	         contributes. Node v contributes (w, F, label(v)) for
//	         w ∈ Out(v), (w, T, label(v)) for w ∈ In(v), and — if v is
//	         itself a center — the compact-code self entries (v, F, label(v))
//	         and (v, T, label(v)).
//	Phase 2  prefix sums over slots turn counts into write cursors.
//	Phase 3  re-walk the nodes and scatter their IDs through the cursors.
//	         Nodes are walked ascending, so every segment comes out sorted
//	         with no per-subcluster sort.
func (db *DB) invertCover(g *graph.Graph) *inversion {
	cover := db.idx
	n := g.NumNodes()
	L := g.Labels().Len()

	// Phase 0: center set.
	mark := make([]bool, n)
	for v := 0; v < n; v++ {
		for _, c := range cover.Out(graph.NodeID(v)) {
			mark[c] = true
		}
		for _, c := range cover.In(graph.NodeID(v)) {
			mark[c] = true
		}
	}
	centers := make([]graph.NodeID, 0, 1024)
	cidx := make([]int32, n)
	for v := 0; v < n; v++ {
		if mark[v] {
			cidx[v] = int32(len(centers))
			centers = append(centers, graph.NodeID(v))
		} else {
			cidx[v] = -1
		}
	}
	nslots := len(centers) * 2 * L
	slot := func(ci int32, dir, label int) int {
		return (int(ci)*2+dir)*L + label
	}

	// Phase 1: slot counts.
	cur := make([]int32, nslots)
	for v := 0; v < n; v++ {
		lv := int(g.LabelOf(graph.NodeID(v)))
		if ci := cidx[v]; ci >= 0 {
			cur[slot(ci, int(dirF), lv)]++
			cur[slot(ci, int(dirT), lv)]++
		}
		for _, c := range cover.Out(graph.NodeID(v)) {
			cur[slot(cidx[c], int(dirF), lv)]++
		}
		for _, c := range cover.In(graph.NodeID(v)) {
			cur[slot(cidx[c], int(dirT), lv)]++
		}
	}

	// Phase 2: counts → slot offsets and write cursors (cur is repurposed
	// in place).
	offsets := make([]int32, nslots+1)
	total := int32(0)
	for s := 0; s < nslots; s++ {
		offsets[s] = total
		total += cur[s]
		cur[s] = offsets[s]
	}
	offsets[nslots] = total

	// Phase 3: scatter.
	members := make([]graph.NodeID, total)
	put := func(s int, v graph.NodeID) {
		members[cur[s]] = v
		cur[s]++
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		lv := int(g.LabelOf(v))
		if ci := cidx[v]; ci >= 0 {
			put(slot(ci, int(dirF), lv), v)
			put(slot(ci, int(dirT), lv), v)
		}
		for _, c := range cover.Out(v) {
			put(slot(cidx[c], int(dirF), lv), v)
		}
		for _, c := range cover.In(v) {
			put(slot(cidx[c], int(dirT), lv), v)
		}
	}

	return &inversion{centers: centers, nLabels: L, offsets: offsets, members: members}
}
