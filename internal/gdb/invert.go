package gdb

import (
	"runtime"
	"sync"

	"fastmatch/internal/graph"
)

// buildWorkers resolves Options.BuildParallelism to a worker count, with
// the same convention as twohop.Options.Parallelism.
func buildWorkers(p int) int {
	if p < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p <= 1 {
		return 1
	}
	return p
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn(worker, lo, hi) on each concurrently. With one worker (or a
// trivially small n) it degenerates to a direct call — no goroutines.
func parallelRanges(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n < workers {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

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
// cover with a sharded counting sort instead of the former map-of-maps:
//
//	Phase 0  (parallel over node ranges): mark the center set — every node
//	         appearing in at least one stored code — in per-worker bitmaps,
//	         OR-merged serially; then assign dense center indices in
//	         ascending node order.
//	Phase 1  (parallel): each worker counts, per (center, dir, label) slot,
//	         the entries its node range contributes. Node v contributes
//	         (w, F, label(v)) for w ∈ Out(v), (w, T, label(v)) for
//	         w ∈ In(v), and — if v is itself a center — the compact-code
//	         self entries (v, F, label(v)) and (v, T, label(v)).
//	Phase 2  (serial): prefix sums over slots, and within each slot over
//	         workers in range order, turn counts into write cursors.
//	Phase 3  (parallel): each worker re-walks its range and scatters node
//	         IDs through its cursors. Ranges are ordered and each range is
//	         walked ascending, so every segment comes out sorted — no
//	         per-subcluster sort, no contention (cursor regions are
//	         disjoint by construction).
//
// The result is identical at every worker count: slot layout depends only
// on the cover, and segment order only on node order.
func (db *DB) invertCover(g *graph.Graph, workers int) *inversion {
	cover := db.idx
	n := g.NumNodes()
	L := g.Labels().Len()

	// Phase 0: center set.
	marks := make([][]bool, workers)
	parallelRanges(n, workers, func(w, lo, hi int) {
		mark := make([]bool, n)
		for v := lo; v < hi; v++ {
			for _, c := range cover.Out(graph.NodeID(v)) {
				mark[c] = true
			}
			for _, c := range cover.In(graph.NodeID(v)) {
				mark[c] = true
			}
		}
		marks[w] = mark
	})
	mark := marks[0]
	for _, m := range marks[1:] {
		for i, b := range m {
			if b {
				mark[i] = true
			}
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

	// Phase 1: per-worker slot counts.
	cnts := make([][]int32, workers)
	parallelRanges(n, workers, func(w, lo, hi int) {
		cnt := make([]int32, nslots)
		for v := lo; v < hi; v++ {
			lv := int(g.LabelOf(graph.NodeID(v)))
			if ci := cidx[v]; ci >= 0 {
				cnt[slot(ci, int(dirF), lv)]++
				cnt[slot(ci, int(dirT), lv)]++
			}
			for _, c := range cover.Out(graph.NodeID(v)) {
				cnt[slot(cidx[c], int(dirF), lv)]++
			}
			for _, c := range cover.In(graph.NodeID(v)) {
				cnt[slot(cidx[c], int(dirT), lv)]++
			}
		}
		cnts[w] = cnt
	})

	// Phase 2: counts → slot offsets + per-worker write cursors (cnts is
	// repurposed in place).
	offsets := make([]int32, nslots+1)
	total := int32(0)
	for s := 0; s < nslots; s++ {
		offsets[s] = total
		for w := 0; w < workers; w++ {
			c := cnts[w][s]
			cnts[w][s] = total
			total += c
		}
	}
	offsets[nslots] = total

	// Phase 3: scatter.
	members := make([]graph.NodeID, total)
	parallelRanges(n, workers, func(w, lo, hi int) {
		cur := cnts[w]
		for v := lo; v < hi; v++ {
			lv := int(g.LabelOf(graph.NodeID(v)))
			if ci := cidx[v]; ci >= 0 {
				s := slot(ci, int(dirF), lv)
				members[cur[s]] = graph.NodeID(v)
				cur[s]++
				s = slot(ci, int(dirT), lv)
				members[cur[s]] = graph.NodeID(v)
				cur[s]++
			}
			for _, c := range cover.Out(graph.NodeID(v)) {
				s := slot(cidx[c], int(dirF), lv)
				members[cur[s]] = graph.NodeID(v)
				cur[s]++
			}
			for _, c := range cover.In(graph.NodeID(v)) {
				s := slot(cidx[c], int(dirT), lv)
				members[cur[s]] = graph.NodeID(v)
				cur[s]++
			}
		}
	})

	return &inversion{centers: centers, nLabels: L, offsets: offsets, members: members}
}
