package twohop

// This file holds the pruned-landmark labeling core Compute runs over the
// SCC condensation (vertices are component IDs).

// coveredFunc builds the prune test: it reports whether src ⇝ dst is
// answerable from the labels assigned so far, by merge-intersecting
// rank-ordered lists.
func coveredFunc(rank []int32) func(outList, inList []int32) bool {
	return func(outList, inList []int32) bool {
		i, j := 0, 0
		for i < len(outList) && j < len(inList) {
			ri, rj := rank[outList[i]], rank[inList[j]]
			switch {
			case ri == rj:
				return true
			case ri < rj:
				i++
			default:
				j++
			}
		}
		return false
	}
}

// prunedLabeling computes a pruned-landmark 2-hop labeling over an
// abstract digraph with n vertices, adjacency succ/pred, and landmark
// order order (rank[c] is c's position in order): one forward and one
// backward pruned BFS per center, strictly in rank order. The returned
// in/out lists hold vertex IDs in increasing rank (append) order and
// include the vertex itself; callers materialise compact sorted lists from
// them.
func prunedLabeling(n int, succ, pred func(int32) []int32, order []int32, rank []int32) (in, out [][]int32) {
	// Per-vertex label lists holding vertex IDs in increasing rank order
	// (append order).
	in = make([][]int32, n)
	out = make([][]int32, n)
	covered := coveredFunc(rank)

	// Epoch-stamped visited marks shared across BFS runs.
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	var epoch int32
	queue := make([]int32, 0, 256)

	for _, c := range order {
		// Forward pruned BFS: add c to in of every vertex reachable from c
		// whose pair (c, d) is not already covered.
		epoch++
		queue = append(queue[:0], c)
		visited[c] = epoch
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if d != c && covered(out[c], in[d]) {
				continue // pruned: do not label, do not expand
			}
			in[d] = append(in[d], c)
			for _, e := range succ(d) {
				if visited[e] != epoch {
					visited[e] = epoch
					queue = append(queue, e)
				}
			}
		}

		// Backward pruned BFS: add c to out of every vertex that reaches c.
		// Note in[c] now contains c, so covered(u, c) via c itself is
		// impossible until c lands in out[u] — exactly what this pass
		// assigns.
		epoch++
		queue = append(queue[:0], c)
		visited[c] = epoch
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if u != c && covered(out[u], in[c]) {
				continue
			}
			out[u] = append(out[u], c)
			for _, p := range pred(u) {
				if visited[p] != epoch {
					visited[p] = epoch
					queue = append(queue, p)
				}
			}
		}
	}
	return in, out
}
