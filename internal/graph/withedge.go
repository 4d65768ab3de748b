package graph

import (
	"cmp"
	"slices"
)

// WithEdges returns a new Graph equal to g plus the edges u→v listed. The
// receiver is never mutated: label table, node labels, and extents are
// shared (they are unaffected by an edge insert), and so is every
// adjacency chunk holding no endpoint; the successor copies the two chunk
// directories and, once each, the chunks that do, with every new endpoint
// spliced in at its sorted position. Readers holding the old Graph keep a
// consistent snapshot, which is what the database's copy-on-write write
// path relies on: it builds one successor per batch.
//
// Edges are a multiset: an edge that already exists, or is listed twice,
// gains a parallel copy; callers that need set semantics must check
// beforehand.
func (g *Graph) WithEdges(edges [][2]NodeID) *Graph {
	ng := g.successor(edges)
	ng.numEdges = g.numEdges + len(edges)
	ng.fwd = spliceChunks(g.fwd, sortedPairs(edges, false), true)
	ng.rev = spliceChunks(g.rev, sortedPairs(edges, true), true)
	return ng
}

// WithEdge returns a new Graph equal to g plus the edge u→v: WithEdges with
// one edge.
func (g *Graph) WithEdge(u, v NodeID) *Graph {
	return g.WithEdges([][2]NodeID{{u, v}})
}

// successor returns a Graph sharing g's labels and extents, with no
// adjacency yet, after checking every endpoint of edges.
func (g *Graph) successor(edges [][2]NodeID) *Graph {
	n := NodeID(g.NumNodes())
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			panic("graph: edge endpoint out of range")
		}
	}
	return &Graph{labels: g.labels, nodeLabel: g.nodeLabel, extent: g.extent}
}

// sortedPairs returns the edges as (source, target) pairs — (target,
// source) when reversed — in ascending order.
func sortedPairs(edges [][2]NodeID, reversed bool) [][2]NodeID {
	ps := make([][2]NodeID, len(edges))
	for i, e := range edges {
		if reversed {
			e[0], e[1] = e[1], e[0]
		}
		ps[i] = e
	}
	slices.SortFunc(ps, func(a, b [2]NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return ps
}

// spliceChunks returns a copy of the chunk directory with each chunk that
// holds the source of one of the ascending (src, dst) pairs replaced by a
// copy spliced by spliceAdj; the other chunks are shared.
func spliceChunks(chunks []*adjChunk, pairs [][2]NodeID, insert bool) []*adjChunk {
	out := slices.Clone(chunks)
	for len(pairs) > 0 {
		ci := pairs[0][0] >> adjChunkBits
		lo := ci << adjChunkBits
		n := 1
		for n < len(pairs) && pairs[n][0]>>adjChunkBits == ci {
			n++
		}
		local := make([][2]NodeID, n)
		for i, p := range pairs[:n] {
			local[i] = [2]NodeID{p[0] - lo, p[1]}
		}
		c := chunks[ci]
		head, adj := spliceAdj(c.head, c.adj, local, insert)
		out[ci] = &adjChunk{head: head, adj: adj}
		pairs = pairs[n:]
	}
	return out
}

// spliceAdj copies a CSR (head, adj) pair in one pass, with each of the
// ascending (src, dst) pairs inserted into src's segment at its sorted
// position, or — insert false — one occurrence of it removed there. It
// panics on removing an absent pair.
func spliceAdj(head []int32, adj []NodeID, pairs [][2]NodeID, insert bool) ([]int32, []NodeID) {
	nh := make([]int32, len(head))
	size := len(adj) - len(pairs)
	if insert {
		size = len(adj) + len(pairs)
	}
	na := make([]NodeID, 0, size)
	p := 0
	for v := 0; v+1 < len(head); v++ {
		nh[v] = int32(len(na))
		seg := adj[head[v]:head[v+1]]
		for ; p < len(pairs) && pairs[p][0] == NodeID(v); p++ {
			at, found := slices.BinarySearch(seg, pairs[p][1])
			na = append(na, seg[:at]...)
			switch {
			case insert:
				na = append(na, pairs[p][1])
				seg = seg[at:]
			case !found:
				panic("graph: WithoutEdge on absent edge")
			default:
				seg = seg[at+1:]
			}
		}
		na = append(na, seg...)
	}
	nh[len(head)-1] = int32(len(na))
	return nh, na
}
