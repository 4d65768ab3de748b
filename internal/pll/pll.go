// Package pll implements pruned-landmark labeling (PLL) over the raw
// digraph — the Akiba-style alternative reachability backend ("pll") from
// the Zhang/Bonifati/Özsu survey (PAPERS.md), registered with the reach
// registry at init.
//
// Where the twohop backend condenses strongly connected components first
// and labels component representatives, PLL labels the vertices of the
// graph directly, in degree-rank order: vertices are ranked by
// (in-degree+1)·(out-degree+1) descending (ties broken by ascending node
// ID, so the order — and with it the labeling — is deterministic), and
// each vertex in turn runs a forward and a backward pruned BFS through
// reach.PrunedLabeling, the same labeling core the twohop backend uses.
// Correctness on cyclic digraphs follows the standard landmark argument:
// for any u ⇝ v, the highest-ranked vertex w on a u→v path was not pruned
// away when it was processed — any label pair that could have pruned the
// BFS at u or v would itself certify w ∈ out(u) resp. w ∈ in(v) — so
// out(u) ∩ in(v) ∋ w.
//
// Skipping the condensation trades index size on cycle-heavy graphs (every
// member of an SCC carries its own labels) for a simpler build with no SCC
// pass and per-vertex granularity; BenchmarkReachBackends (internal/exec)
// measures how the trade-off lands. The labels follow the same compact
// convention as every backend: the node itself is removed, full codes add
// it back, and Reaches applies the convention.
package pll

import (
	"runtime"
	"slices"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
)

// BackendName is the name this package registers with the reach registry.
const BackendName = "pll"

// Index is a computed PLL labeling for a graph. It is immutable after
// Compute and safe for concurrent readers. It implements reach.Index.
type Index struct {
	g *graph.Graph

	// in[v] / out[v]: compact per-node landmark lists, sorted ascending by
	// NodeID, excluding v itself.
	in  [][]graph.NodeID
	out [][]graph.NodeID

	size int // Σ_v |in(v)| + |out(v)| (compact entries)
}

// Compute builds a PLL labeling for g. opt.Parallelism follows the same
// convention as the twohop backend: ≤ 1 serial, n > 1 workers, < 0
// GOMAXPROCS; the labeling is deterministic for a fixed (graph, workers)
// pair.
func Compute(g *graph.Graph, opt reach.Options) *Index {
	n := g.NumNodes()
	order, rank := degreeOrder(g)

	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rawIn, rawOut := reach.PrunedLabeling(n, g.Successors, g.Predecessors, order, rank, workers)

	idx := &Index{
		g:   g,
		in:  make([][]graph.NodeID, n),
		out: make([][]graph.NodeID, n),
	}
	// Materialise compact lists: drop the vertex itself (PrunedLabeling
	// always assigns v to its own labels), sort ascending.
	for v := 0; v < n; v++ {
		idx.in[v] = compactList(rawIn[v], graph.NodeID(v))
		idx.out[v] = compactList(rawOut[v], graph.NodeID(v))
		idx.size += len(idx.in[v]) + len(idx.out[v])
	}
	return idx
}

// degreeOrder ranks vertices by (in-degree+1)·(out-degree+1) descending,
// stable by ascending node ID.
func degreeOrder(g *graph.Graph) (order []graph.NodeID, rank []int32) {
	n := g.NumNodes()
	order = make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	score := make([]int64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		score[v] = int64(g.InDegree(v)+1) * int64(g.OutDegree(v)+1)
	}
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		switch {
		case score[a] > score[b]:
			return -1
		case score[a] < score[b]:
			return 1
		default:
			return 0
		}
	})
	rank = make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	return order, rank
}

// compactList drops self and sorts ascending.
func compactList(l []graph.NodeID, self graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(l))
	for _, w := range l {
		if w == self {
			continue
		}
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// Backend returns the registered backend name, "pll".
func (x *Index) Backend() string { return BackendName }

// Graph returns the graph this index labels.
func (x *Index) Graph() *graph.Graph { return x.g }

// In returns the compact L_in(v), sorted ascending, excluding v. The
// slice aliases internal storage.
func (x *Index) In(v graph.NodeID) []graph.NodeID { return x.in[v] }

// Out returns the compact L_out(v), sorted ascending, excluding v. The
// slice aliases internal storage.
func (x *Index) Out(v graph.NodeID) []graph.NodeID { return x.out[v] }

// Size returns the labeling size |H| counting compact entries.
func (x *Index) Size() int { return x.size }

// Reaches reports u ⇝ v using the full graph codes
// out(u) = Out(u) ∪ {u}, in(v) = In(v) ∪ {v}.
func (x *Index) Reaches(u, v graph.NodeID) bool {
	if u == v {
		return true
	}
	if intersectSorted(x.out[u], x.in[v]) {
		return true
	}
	if containsSorted(x.in[v], u) {
		return true
	}
	return containsSorted(x.out[u], v)
}

func intersectSorted(a, b []graph.NodeID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func containsSorted(a []graph.NodeID, v graph.NodeID) bool {
	_, found := slices.BinarySearch(a, v)
	return found
}

// Stats computes summary statistics. The SCC count is recomputed on
// demand — the build itself never condenses.
func (x *Index) Stats() reach.Stats {
	s := reach.Stats{
		Backend:    BackendName,
		Nodes:      x.g.NumNodes(),
		Edges:      x.g.NumEdges(),
		Components: graph.NewSCC(x.g).NumComponents(),
		Size:       x.size,
	}
	if s.Nodes > 0 {
		s.Ratio = float64(s.Size) / float64(s.Nodes)
	}
	for v := range x.in {
		if len(x.in[v]) > s.MaxIn {
			s.MaxIn = len(x.in[v])
		}
		if len(x.out[v]) > s.MaxOut {
			s.MaxOut = len(x.out[v])
		}
	}
	return s
}

// Verify exhaustively checks the labeling against BFS reachability on
// every node pair.
func (x *Index) Verify() error { return reach.VerifyIndex(x) }

// backend adapts this package to the reach.Backend interface.
type backend struct{}

func init() { reach.Register(backend{}) }

func (backend) Name() string { return BackendName }

func (backend) Build(g *graph.Graph, opt reach.Options) reach.Index { return Compute(g, opt) }

func (backend) Dynamic(idx reach.Index) reach.Dynamic { return reach.NewIncremental(idx) }

func (backend) DynamicFromLabels(g *graph.Graph, in, out [][]graph.NodeID) reach.Dynamic {
	return reach.NewIncrementalFromLabels(g, in, out)
}
