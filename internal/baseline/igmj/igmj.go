// Package igmj implements the INT-DP baseline of Section 5.2: the IGMJ
// sort-merge R-join of Wang et al. over the multi-interval reachability
// code of Agrawal, Borgida and Jagadish.
//
// Construction: condense strongly connected components to a DAG G′, build a
// spanning forest of G′, assign each component a postorder number, and give
// every component an interval set I(c) — its spanning-tree interval plus
// the (merged) intervals of its non-tree successors, propagated in reverse
// topological order. Then u ⇝ v iff po(comp(v)) stabs I(comp(u)).
//
// For each label X, the index persists through the storage engine:
//
//	Xlist: one (s, e, x) entry per interval of each x ∈ ext(X),
//	       sorted by s ascending then e descending;
//	Ylist: one (po, y) entry per y ∈ ext(X), sorted by po ascending.
//
// IGMJ joins a sorted interval list against a sorted postorder list in one
// merge pass. Joining a temporal table requires re-sorting its bound column
// first — the extra cost the paper's Section 5.2 highlights — whereas the
// cluster-based R-join index never sorts.
package igmj

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"

	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/storage"
)

// Interval is a closed postorder range [S, E].
type Interval struct{ S, E int32 }

// Index is a built multi-interval reachability index.
type Index struct {
	g     *graph.Graph
	scc   *graph.SCC
	po    []int32      // per component: postorder number
	ivals [][]Interval // per component: disjoint intervals, sorted by S

	pool  *storage.BufferPool
	heap  *storage.HeapFile
	xlist map[graph.Label]storage.RID
	ylist map[graph.Label]storage.RID
}

// BuildIndex encodes g and persists the per-label join lists. poolBytes ≤ 0
// selects the default 1 MB buffer pool.
func BuildIndex(g *graph.Graph, poolBytes int) (*Index, error) {
	if poolBytes <= 0 {
		poolBytes = storage.DefaultPoolBytes
	}
	scc := graph.NewSCC(g)
	nc := scc.NumComponents()
	ix := &Index{
		g:     g,
		scc:   scc,
		po:    make([]int32, nc),
		ivals: make([][]Interval, nc),
		pool:  storage.NewBufferPool(storage.NewMemPager(), poolBytes),
		xlist: make(map[graph.Label]storage.RID),
		ylist: make(map[graph.Label]storage.RID),
	}
	ix.heap = storage.NewHeapFile(ix.pool)

	ix.assignPostorder()
	ix.propagateIntervals()
	if err := ix.buildLists(); err != nil {
		return nil, err
	}
	return ix, nil
}

// assignPostorder numbers components by a postorder DFS over a spanning
// forest of the condensation, and records each component's spanning-tree
// interval as its first interval.
func (ix *Index) assignPostorder() {
	nc := ix.scc.NumComponents()
	visited := make([]bool, nc)
	var clock int32
	low := make([]int32, nc)

	var dfs func(c int32)
	dfs = func(c int32) {
		visited[c] = true
		low[c] = clock
		for _, d := range ix.scc.CondSuccessors(c) {
			if !visited[d] {
				dfs(d)
			}
		}
		ix.po[c] = clock
		clock++
		if low[c] > ix.po[c] {
			low[c] = ix.po[c]
		}
		ix.ivals[c] = []Interval{{low[c], ix.po[c]}}
	}
	// Condensation roots first (components with no predecessors).
	for c := int32(0); int(c) < nc; c++ {
		if len(ix.scc.CondPredecessors(c)) == 0 && !visited[c] {
			dfs(c)
		}
	}
	for c := int32(0); int(c) < nc; c++ {
		if !visited[c] {
			dfs(c)
		}
	}
}

// propagateIntervals adds every successor's intervals in reverse
// topological order (component IDs ascending — Tarjan numbers components
// reverse-topologically, so successors have smaller IDs).
func (ix *Index) propagateIntervals() {
	for c := int32(0); int(c) < ix.scc.NumComponents(); c++ {
		merged := ix.ivals[c]
		for _, d := range ix.scc.CondSuccessors(c) {
			merged = append(merged, ix.ivals[d]...)
		}
		ix.ivals[c] = mergeIntervals(merged)
	}
}

// mergeIntervals sorts and coalesces overlapping or adjacent intervals.
func mergeIntervals(in []Interval) []Interval {
	if len(in) <= 1 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i].S < in[j].S })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.S <= last.E+1 {
			if iv.E > last.E {
				last.E = iv.E
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// xEntry is one Xlist element.
type xEntry struct {
	s, e int32
	node graph.NodeID
}

// yEntry is one Ylist element.
type yEntry struct {
	po   int32
	node graph.NodeID
}

func (ix *Index) buildLists() error {
	for l := graph.Label(0); int(l) < ix.g.Labels().Len(); l++ {
		var xs []xEntry
		var ys []yEntry
		for _, v := range ix.g.Extent(l) {
			c := ix.scc.Comp[v]
			for _, iv := range ix.ivals[c] {
				xs = append(xs, xEntry{iv.S, iv.E, v})
			}
			ys = append(ys, yEntry{ix.po[c], v})
		}
		sortXEntries(xs)
		sort.Slice(ys, func(i, j int) bool { return ys[i].po < ys[j].po })
		xrid, err := ix.heap.Insert(encodeXList(xs))
		if err != nil {
			return err
		}
		yrid, err := ix.heap.Insert(encodeYList(ys))
		if err != nil {
			return err
		}
		ix.xlist[l] = xrid
		ix.ylist[l] = yrid
	}
	return ix.pool.FlushAll()
}

func sortXEntries(xs []xEntry) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].s != xs[j].s {
			return xs[i].s < xs[j].s
		}
		return xs[i].e > xs[j].e
	})
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// IOStats returns the buffer pool counters.
func (ix *Index) IOStats() storage.IOStats { return ix.pool.Stats() }

// ResetIOStats zeroes the counters.
func (ix *Index) ResetIOStats() { ix.pool.ResetStats() }

// Intervals returns the interval set of v's component (aliases storage).
func (ix *Index) Intervals(v graph.NodeID) []Interval { return ix.ivals[ix.scc.Comp[v]] }

// Postorder returns po(comp(v)).
func (ix *Index) Postorder(v graph.NodeID) int32 { return ix.po[ix.scc.Comp[v]] }

// Reaches reports u ⇝ v by stabbing u's intervals with v's postorder.
func (ix *Index) Reaches(u, v graph.NodeID) bool {
	if ix.scc.Comp[u] == ix.scc.Comp[v] {
		return true
	}
	return stab(ix.ivals[ix.scc.Comp[u]], ix.po[ix.scc.Comp[v]])
}

func stab(ivals []Interval, po int32) bool {
	lo, hi := 0, len(ivals)
	for lo < hi {
		mid := (lo + hi) / 2
		if ivals[mid].E < po {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ivals) && ivals[lo].S <= po
}

// eHeap is a min-heap of active x entries ordered by interval end.
type eHeap []xEntry

func (h eHeap) Len() int            { return len(h) }
func (h eHeap) Less(i, j int) bool  { return h[i].e < h[j].e }
func (h eHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eHeap) Push(x interface{}) { *h = append(*h, x.(xEntry)) }
func (h *eHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// mergeJoin is the IGMJ single-scan merge of a sorted interval list against
// a sorted postorder list, emitting every (x, y) with po(y) inside an
// interval of x.
func mergeJoin(xs []xEntry, ys []yEntry, emit func(x, y graph.NodeID)) {
	var active eHeap
	i := 0
	for _, ye := range ys {
		for i < len(xs) && xs[i].s <= ye.po {
			heap.Push(&active, xs[i])
			i++
		}
		for active.Len() > 0 && active[0].e < ye.po {
			heap.Pop(&active)
		}
		for _, xe := range active {
			emit(xe.node, ye.node)
		}
	}
}

// Join computes the base-table R-join T_X ⋈_{X→Y} T_Y with IGMJ, reading
// both persisted lists through the buffer pool.
func (ix *Index) Join(c rjoin.Cond) (*rjoin.Result, error) {
	xs, err := ix.readXList(c.FromLabel)
	if err != nil {
		return nil, err
	}
	ys, err := ix.readYList(c.ToLabel)
	if err != nil {
		return nil, err
	}
	out := &rjoin.Result{Cols: []int{c.FromNode, c.ToNode}}
	mergeJoin(xs, ys, func(x, y graph.NodeID) {
		out.Data = append(out.Data, x, y)
		out.N++
	})
	return out, nil
}

// JoinTemporal joins a temporal table against a base table. The temporal
// side's distinct bound values must be extracted and sorted first — IGMJ's
// per-join sorting cost.
func (ix *Index) JoinTemporal(t *rjoin.Result, c rjoin.Cond) (*rjoin.Result, error) {
	hasFrom, hasTo := t.HasCol(c.FromNode), t.HasCol(c.ToNode)
	switch {
	case hasFrom && hasTo:
		return ix.selection(t, c)
	case hasFrom:
		return ix.joinForward(t, c)
	case hasTo:
		return ix.joinReverse(t, c)
	default:
		return nil, fmt.Errorf("igmj: condition %v has no side bound in %v", c, t.Cols)
	}
}

func (ix *Index) joinForward(t *rjoin.Result, c rjoin.Cond) (*rjoin.Result, error) {
	col := t.ColIndex(c.FromNode)
	rowsByX := make(map[graph.NodeID][]int)
	for ri := 0; ri < t.N; ri++ {
		v := t.Row(ri)[col]
		rowsByX[v] = append(rowsByX[v], ri)
	}
	// Build and sort the temporal interval list (the resorting step).
	var xs []xEntry
	for x := range rowsByX {
		for _, iv := range ix.Intervals(x) {
			xs = append(xs, xEntry{iv.S, iv.E, x})
		}
	}
	sortXEntries(xs)
	ys, err := ix.readYList(c.ToLabel)
	if err != nil {
		return nil, err
	}
	out := &rjoin.Result{Cols: append(append([]int(nil), t.Cols...), c.ToNode)}
	mergeJoin(xs, ys, func(x, y graph.NodeID) {
		for _, ri := range rowsByX[x] {
			out.Data = append(append(out.Data, t.Row(ri)...), y)
			out.N++
		}
	})
	return out, nil
}

func (ix *Index) joinReverse(t *rjoin.Result, c rjoin.Cond) (*rjoin.Result, error) {
	col := t.ColIndex(c.ToNode)
	rowsByY := make(map[graph.NodeID][]int)
	for ri := 0; ri < t.N; ri++ {
		v := t.Row(ri)[col]
		rowsByY[v] = append(rowsByY[v], ri)
	}
	var ys []yEntry
	for y := range rowsByY {
		ys = append(ys, yEntry{ix.Postorder(y), y})
	}
	sort.Slice(ys, func(i, j int) bool { return ys[i].po < ys[j].po })
	xs, err := ix.readXList(c.FromLabel)
	if err != nil {
		return nil, err
	}
	out := &rjoin.Result{Cols: append(append([]int(nil), t.Cols...), c.FromNode)}
	mergeJoin(xs, ys, func(x, y graph.NodeID) {
		for _, ri := range rowsByY[y] {
			out.Data = append(append(out.Data, t.Row(ri)...), x)
			out.N++
		}
	})
	return out, nil
}

func (ix *Index) selection(t *rjoin.Result, c rjoin.Cond) (*rjoin.Result, error) {
	fi, ti := t.ColIndex(c.FromNode), t.ColIndex(c.ToNode)
	out := &rjoin.Result{Cols: t.Cols}
	for i := 0; i < t.N; i++ {
		if row := t.Row(i); ix.Reaches(row[fi], row[ti]) {
			out.Data = append(out.Data, row...)
			out.N++
		}
	}
	return out, nil
}

// Run executes a DP plan (R-joins and selections only) with IGMJ operators:
// the INT-DP strategy of Section 6. Plans containing semijoin or fetch
// steps are rejected — IGMJ has no filter/fetch decomposition.
func Run(ix *Index, plan *optimizer.Plan) (*rjoin.Table, error) {
	var t *rjoin.Result
	for si, s := range plan.Steps {
		var err error
		switch s.Kind {
		case optimizer.StepHPSJ:
			if t != nil {
				return nil, fmt.Errorf("igmj: step %d: join of two base tables mid-plan", si+1)
			}
			t, err = ix.Join(plan.Binding.Conds[s.Edges[0]])
		case optimizer.StepJoinFilterFetch:
			if t == nil {
				return nil, fmt.Errorf("igmj: step %d without temporal table", si+1)
			}
			t, err = ix.JoinTemporal(t, plan.Binding.Conds[s.Edges[0]])
		case optimizer.StepSelection:
			if t == nil {
				return nil, fmt.Errorf("igmj: step %d without temporal table", si+1)
			}
			t, err = ix.selection(t, plan.Binding.Conds[s.Edges[0]])
		default:
			return nil, fmt.Errorf("igmj: unsupported step kind %v (INT-DP runs DP plans only)", s.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("igmj: step %d: %w", si+1, err)
		}
		// Materialise through storage — INT-DP's temporal tables are
		// disk-resident too (same accounting as the R-join engine).
		if err := ix.spill(t); err != nil {
			return nil, fmt.Errorf("igmj: step %d: spill: %w", si+1, err)
		}
	}
	if t == nil {
		return nil, fmt.Errorf("igmj: empty plan")
	}
	nodes := make([]int, plan.Binding.Pattern.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	out, err := t.Project(nodes)
	if err != nil {
		return nil, err
	}
	return out.Table(nodes)
}

// spill round-trips a temporal table through the heap (see exec's spill).
func (ix *Index) spill(t *rjoin.Result) error {
	if t == nil || t.Len() == 0 {
		return nil
	}
	rid, err := ix.heap.Insert(t.EncodeRows())
	if err != nil {
		return err
	}
	data, err := ix.heap.Read(rid)
	if err != nil {
		return err
	}
	return t.DecodeRows(data)
}

// List persistence: flat records of fixed-width entries.

func encodeXList(xs []xEntry) []byte {
	b := make([]byte, 4+12*len(xs))
	binary.LittleEndian.PutUint32(b, uint32(len(xs)))
	for i, e := range xs {
		o := 4 + 12*i
		binary.LittleEndian.PutUint32(b[o:], uint32(e.s))
		binary.LittleEndian.PutUint32(b[o+4:], uint32(e.e))
		binary.LittleEndian.PutUint32(b[o+8:], uint32(e.node))
	}
	return b
}

func (ix *Index) readXList(l graph.Label) ([]xEntry, error) {
	rid, ok := ix.xlist[l]
	if !ok {
		return nil, nil
	}
	b, err := ix.heap.Read(rid)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(b)
	out := make([]xEntry, n)
	for i := range out {
		o := 4 + 12*i
		out[i] = xEntry{
			s:    int32(binary.LittleEndian.Uint32(b[o:])),
			e:    int32(binary.LittleEndian.Uint32(b[o+4:])),
			node: graph.NodeID(binary.LittleEndian.Uint32(b[o+8:])),
		}
	}
	return out, nil
}

func encodeYList(ys []yEntry) []byte {
	b := make([]byte, 4+8*len(ys))
	binary.LittleEndian.PutUint32(b, uint32(len(ys)))
	for i, e := range ys {
		o := 4 + 8*i
		binary.LittleEndian.PutUint32(b[o:], uint32(e.po))
		binary.LittleEndian.PutUint32(b[o+4:], uint32(e.node))
	}
	return b
}

func (ix *Index) readYList(l graph.Label) ([]yEntry, error) {
	rid, ok := ix.ylist[l]
	if !ok {
		return nil, nil
	}
	b, err := ix.heap.Read(rid)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(b)
	out := make([]yEntry, n)
	for i := range out {
		o := 4 + 8*i
		out[i] = yEntry{
			po:   int32(binary.LittleEndian.Uint32(b[o:])),
			node: graph.NodeID(binary.LittleEndian.Uint32(b[o+4:])),
		}
	}
	return out, nil
}
