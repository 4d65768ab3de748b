// Package twohop computes 2-hop reachability covers and labelings for
// directed graphs (Cohen et al., SODA'02; the paper's reference [17]),
// playing the role of the fast 2-hop computation of the authors' EDBT'06
// algorithm (reference [15]). It is the one reachability labeling the
// engine stores; internal/reach maintains it under edge inserts and
// deletes.
//
// A 2-hop cover H = {S(U_w, w, V_w), ...} assigns every node v a label
// L(v) = (L_in(v), L_out(v)) such that u ⇝ v iff L_out(u) ∩ L_in(v) ≠ ∅,
// where the label entries are *centers* w: w ∈ L_out(u) means u ⇝ w, and
// w ∈ L_in(v) means w ⇝ v.
//
// We compute the cover with pruned landmark labeling over the strongly-
// connected-component condensation: components are processed as landmark
// centers in a configurable rank order; a forward (backward) pruned BFS from
// center w adds w to L_in (L_out) of every component whose reachability
// from (to) w is not already answerable from previously assigned labels.
// The labeling core itself lives in labeling.go. Compute is serial and
// deterministic: one graph and one Options give the same cover, entry for
// entry. Every valid 2-hop cover supports the same R-join semantics; this
// construction keeps |H|/|V| in the small-constant band the paper reports.
//
// Following Example 3.1 of the paper, the labels returned by In and Out are
// "compact": the node itself is removed. Full graph codes are
// in(v) = In(v) ∪ {v} and out(v) = Out(v) ∪ {v}; Reaches applies that
// convention, and so do the cluster index and W-table built on top.
package twohop

import (
	"fmt"
	"math/rand"
	"slices"

	"fastmatch/internal/graph"
)

// CenterOrder selects the landmark processing order, which determines cover
// size (not correctness).
type CenterOrder int

const (
	// OrderDegreeProduct ranks components by (in-degree+1)·(out-degree+1)
	// of the condensation, descending — high-coverage centers first.
	// This is the default and produces the smallest covers.
	OrderDegreeProduct CenterOrder = iota
	// OrderTopological processes components in topological order.
	OrderTopological
	// OrderRandom processes components in seeded random order.
	OrderRandom
)

func (o CenterOrder) String() string {
	switch o {
	case OrderDegreeProduct:
		return "degree-product"
	case OrderTopological:
		return "topological"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("CenterOrder(%d)", int(o))
	}
}

// Options configures cover computation.
type Options struct {
	// Order is the landmark order (default OrderDegreeProduct).
	Order CenterOrder
	// Seed seeds OrderRandom.
	Seed int64
}

// Cover is a computed 2-hop reachability labeling for a graph.
// It is immutable after Compute and safe for concurrent readers.
type Cover struct {
	g   *graph.Graph
	scc *graph.SCC

	// rep[c] is the representative node (center identity) of component c.
	rep []graph.NodeID
	// compOf[w] is the component a representative identifies, or -1 when w
	// is not a representative.
	compOf []int32

	// in[v] / out[v]: compact per-node center lists, sorted ascending by
	// center NodeID, excluding v itself.
	in  [][]graph.NodeID
	out [][]graph.NodeID

	size int // Σ_v |in(v)| + |out(v)| (compact entries), the cover size |H|
}

// Compute builds a 2-hop cover for g.
func Compute(g *graph.Graph, opt Options) *Cover {
	scc := graph.NewSCC(g)
	nc := scc.NumComponents()

	rep := make([]graph.NodeID, nc)
	for c := 0; c < nc; c++ {
		m := scc.Members(int32(c))
		best := m[0]
		for _, v := range m[1:] {
			if v < best {
				best = v
			}
		}
		rep[c] = best
	}

	order := centerOrder(scc, opt)
	rank := make([]int32, nc)
	for r, c := range order {
		rank[c] = int32(r)
	}

	compIn, compOut := prunedLabeling(nc, scc.CondSuccessors, scc.CondPredecessors, order, rank)

	cov := &Cover{
		g:      g,
		scc:    scc,
		rep:    rep,
		compOf: make([]int32, g.NumNodes()),
		in:     make([][]graph.NodeID, g.NumNodes()),
		out:    make([][]graph.NodeID, g.NumNodes()),
	}
	for i := range cov.compOf {
		cov.compOf[i] = -1
	}
	for c := 0; c < nc; c++ {
		cov.compOf[rep[c]] = int32(c)
	}

	// Materialise compact per-node lists: map component labels to
	// representative node IDs, drop the node itself, sort ascending.
	for v := range cov.in {
		c := scc.Comp[v]
		cov.in[v] = nodeList(compIn[c], rep, graph.NodeID(v))
		cov.out[v] = nodeList(compOut[c], rep, graph.NodeID(v))
		cov.size += len(cov.in[v]) + len(cov.out[v])
	}
	return cov
}

// nodeList converts a component-ID label list to a sorted compact NodeID
// list excluding self.
func nodeList(comps []int32, rep []graph.NodeID, self graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(comps))
	for _, c := range comps {
		w := rep[c]
		if w == self {
			continue
		}
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

func centerOrder(scc *graph.SCC, opt Options) []int32 {
	nc := scc.NumComponents()
	order := make([]int32, nc)
	for i := range order {
		order[i] = int32(i)
	}
	switch opt.Order {
	case OrderTopological:
		return scc.TopoOrder()
	case OrderRandom:
		rng := rand.New(rand.NewSource(opt.Seed))
		rng.Shuffle(nc, func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	default: // OrderDegreeProduct
		score := make([]int64, nc)
		for c := int32(0); c < int32(nc); c++ {
			din := int64(len(scc.CondPredecessors(c)))
			dout := int64(len(scc.CondSuccessors(c)))
			score[c] = (din + 1) * (dout + 1) * int64(len(scc.Members(c)))
		}
		slices.SortStableFunc(order, func(a, b int32) int {
			switch {
			case score[a] > score[b]:
				return -1
			case score[a] < score[b]:
				return 1
			default:
				return 0
			}
		})
		return order
	}
}

// Graph returns the graph this cover labels.
func (c *Cover) Graph() *graph.Graph { return c.g }

// In returns the compact L_in(v): every center w ≠ v with w ⇝ v that the
// cover assigned to v, sorted ascending. The slice aliases internal storage.
func (c *Cover) In(v graph.NodeID) []graph.NodeID { return c.in[v] }

// Out returns the compact L_out(v): every center w ≠ v with v ⇝ w that the
// cover assigned to v, sorted ascending. The slice aliases internal storage.
func (c *Cover) Out(v graph.NodeID) []graph.NodeID { return c.out[v] }

// Size returns the 2-hop cover size |H| = Σ_v (|L_in(v)| + |L_out(v)|)
// counting compact entries.
func (c *Cover) Size() int { return c.size }

// IsCenter reports whether w is a center (a component representative), and
// if so which component it represents.
func (c *Cover) IsCenter(w graph.NodeID) bool { return c.compOf[w] >= 0 }

// Reaches reports u ⇝ v using the full graph codes
// out(u) = Out(u) ∪ {u}, in(v) = In(v) ∪ {v}.
func (c *Cover) Reaches(u, v graph.NodeID) bool {
	if u == v {
		return true
	}
	// out(u) ∩ in(v): merge the sorted compact lists, then account for the
	// implicit self entries: u ∈ out(u) matters iff u ∈ In(v); v ∈ in(v)
	// matters iff v ∈ Out(u).
	if intersectSorted(c.out[u], c.in[v]) {
		return true
	}
	if containsSorted(c.in[v], u) {
		return true
	}
	return containsSorted(c.out[u], v)
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

func containsSorted(a []graph.NodeID, x graph.NodeID) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// Stats summarises a computed cover.
type Stats struct {
	Nodes      int
	Edges      int
	Components int     // SCC count of the indexed graph
	Size       int     // |H| = Σ_v |in(v)| + |out(v)| (compact entries)
	Ratio      float64 // |H| / |V|
	MaxIn      int
	MaxOut     int
}

func (s Stats) String() string {
	return fmt.Sprintf("twohop{|V|=%d |E|=%d scc=%d |H|=%d |H|/|V|=%.3f maxIn=%d maxOut=%d}",
		s.Nodes, s.Edges, s.Components, s.Size, s.Ratio, s.MaxIn, s.MaxOut)
}

// Stats computes summary statistics.
func (c *Cover) Stats() Stats {
	s := Stats{
		Nodes:      c.g.NumNodes(),
		Edges:      c.g.NumEdges(),
		Components: c.scc.NumComponents(),
		Size:       c.size,
	}
	if s.Nodes > 0 {
		s.Ratio = float64(s.Size) / float64(s.Nodes)
	}
	for v := range c.in {
		if len(c.in[v]) > s.MaxIn {
			s.MaxIn = len(c.in[v])
		}
		if len(c.out[v]) > s.MaxOut {
			s.MaxOut = len(c.out[v])
		}
	}
	return s
}

// Verify exhaustively checks that the cover agrees with BFS reachability on
// every node pair of its graph, returning the first disagreement. It is
// O(|V|²·|V+E|) — a debugging and acceptance tool for small graphs.
func (c *Cover) Verify() error {
	g := c.g
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		r := graph.ReachableFrom(g, u)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if got := c.Reaches(u, v); got != r[v] {
				return fmt.Errorf("twohop: cover disagrees with BFS on (%d, %d): labeling says %v", u, v, got)
			}
		}
	}
	return nil
}
