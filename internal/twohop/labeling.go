package twohop

import (
	"sync"
	"sync/atomic"
)

// This file holds the pruned-landmark labeling core Compute runs over the
// SCC condensation (vertices are component IDs): the serial reference
// construction and the batch-parallel construction with serial
// reconciliation.

// batchPerWorker sets the batch size for batched labeling: each batch holds
// batchPerWorker·workers centers. Larger batches expose more concurrency but
// inflate the labeling (centers in the same batch cannot prune against each
// other during their BFS — only the serial reconciliation pass catches the
// redundancy, after the BFS has already expanded past frontiers a serial
// build would have cut). 2 keeps measured inflation well under the 1.15x
// budget on xmark-style graphs while giving every worker two BFS pairs per
// barrier.
const batchPerWorker = 2

// prunedLabeling computes a pruned-landmark 2-hop labeling over an
// abstract digraph with n vertices, adjacency succ/pred, and landmark
// order order (rank[c] is c's position in order). The returned in/out
// lists hold vertex IDs in increasing rank (append) order and include the
// vertex itself; callers materialise compact sorted lists from them.
//
// workers ≤ 1 selects the serial reference construction: one forward and
// one backward pruned BFS per center, strictly in rank order — byte-
// identical to what previous versions computed for the 2-hop cover.
// workers > 1 processes centers in rank-ordered batches: within a batch
// the BFS pairs run concurrently against the labels committed by earlier
// batches, then a serial reconciliation pass re-prunes entries made
// redundant by same-batch centers. The parallel labeling is always valid,
// deterministic for a fixed (graph, order, workers) triple regardless of
// goroutine scheduling, and at most modestly larger than the serial one
// (see DESIGN.md).
func prunedLabeling(n int, succ, pred func(int32) []int32, order []int32, rank []int32, workers int) (in, out [][]int32) {
	if workers <= 1 {
		return labelSerial(n, succ, pred, order, rank)
	}
	return labelBatched(n, succ, pred, order, rank, workers)
}

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

// labelSerial is the reference pruned-landmark construction.
func labelSerial(n int, succ, pred func(int32) []int32, order []int32, rank []int32) (in, out [][]int32) {
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

// bfsState is the per-worker scratch for pruned BFS runs: an epoch-stamped
// visited array (no clearing between runs) and a reusable queue.
type bfsState struct {
	visited []int32
	epoch   int32
	queue   []int32
}

func newBFSState(n int) *bfsState {
	s := &bfsState{visited: make([]int32, n), queue: make([]int32, 0, 256)}
	for i := range s.visited {
		s.visited[i] = -1
	}
	return s
}

// labelBatched computes the same style of pruned-landmark labeling as
// labelSerial, but processes centers in rank-ordered batches of
// batchPerWorker·workers:
//
//  1. Within a batch, each center's forward and backward pruned BFS runs as
//     an independent task against a *snapshot* of the labels committed by
//     earlier batches. The snapshot is simply in/out themselves — no
//     goroutine writes them during the concurrent phase, so reading them
//     race-free needs no copying. Each BFS records its would-be label
//     targets (in visit order) as candidates instead of writing labels.
//  2. A serial reconciliation pass then walks the batch in rank order and
//     commits each candidate unless it has become coverable by a same-batch
//     center committed moments before.
//
// Correctness follows the standard pruned-landmark argument: a BFS pruned
// against a *subset* of the final labels visits a *superset* of the
// vertices the fully-informed BFS would, so no label that the serial
// construction needs is ever missed; reconciliation only drops entries
// whose pair is answerable through an earlier-ranked center, which
// preserves validity.
func labelBatched(n int, succ, pred func(int32) []int32, order []int32, rank []int32, workers int) (in, out [][]int32) {
	in = make([][]int32, n)
	out = make([][]int32, n)
	covered := coveredFunc(rank)

	states := make([]*bfsState, workers)
	for i := range states {
		states[i] = newBFSState(n)
	}

	batch := batchPerWorker * workers
	fwdCand := make([][]int32, batch)
	bwdCand := make([][]int32, batch)

	for start := 0; start < len(order); start += batch {
		end := start + batch
		if end > len(order) {
			end = len(order)
		}
		centers := order[start:end]

		// Concurrent phase: 2·len(centers) BFS tasks (task 2i = forward for
		// centers[i], 2i+1 = backward) pulled off an atomic counter.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(st *bfsState) {
				defer wg.Done()
				for {
					t := int(next.Add(1)) - 1
					if t >= 2*len(centers) {
						return
					}
					i, backward := t/2, t%2 == 1
					c := centers[i]
					if backward {
						bwdCand[i] = backwardBFS(st, c, pred, in, out, covered, bwdCand[i][:0])
					} else {
						fwdCand[i] = forwardBFS(st, c, succ, in, out, covered, fwdCand[i][:0])
					}
				}
			}(states[w])
		}
		wg.Wait()

		// Serial reconciliation, in rank order: commit candidates unless a
		// same-batch center that just committed already covers the pair. The
		// candidate lists are in BFS visit order, so appends keep in/out in
		// increasing rank order as covered() requires.
		for i, c := range centers {
			for _, d := range fwdCand[i] {
				if d != c && covered(out[c], in[d]) {
					continue
				}
				in[d] = append(in[d], c)
			}
			for _, u := range bwdCand[i] {
				if u != c && covered(out[u], in[c]) {
					continue
				}
				out[u] = append(out[u], c)
			}
		}
	}
	return in, out
}

// forwardBFS runs the forward pruned BFS for center c against the committed
// labels, appending every vertex that would receive c in its in-label to
// dst (in visit order) without writing any labels.
func forwardBFS(st *bfsState, c int32, succ func(int32) []int32, in, out [][]int32, covered func(a, b []int32) bool, dst []int32) []int32 {
	st.epoch++
	st.queue = append(st.queue[:0], c)
	st.visited[c] = st.epoch
	q := st.queue
	for len(q) > 0 {
		d := q[0]
		q = q[1:]
		if d != c && covered(out[c], in[d]) {
			continue
		}
		dst = append(dst, d)
		for _, e := range succ(d) {
			if st.visited[e] != st.epoch {
				st.visited[e] = st.epoch
				q = append(q, e)
			}
		}
	}
	return dst
}

// backwardBFS is forwardBFS's mirror for out-labels: it collects every
// vertex that would receive c in its out-label. in[c] has not been
// committed yet (c's own forward candidates are reconciled later), so the
// covered check relies purely on earlier batches — exactly the snapshot
// semantics labelBatched documents.
func backwardBFS(st *bfsState, c int32, pred func(int32) []int32, in, out [][]int32, covered func(a, b []int32) bool, dst []int32) []int32 {
	st.epoch++
	st.queue = append(st.queue[:0], c)
	st.visited[c] = st.epoch
	q := st.queue
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		if u != c && covered(out[u], in[c]) {
			continue
		}
		dst = append(dst, u)
		for _, p := range pred(u) {
			if st.visited[p] != st.epoch {
				st.visited[p] = st.epoch
				q = append(q, p)
			}
		}
	}
	return dst
}
