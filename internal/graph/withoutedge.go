package graph

// WithoutEdges returns a new Graph equal to g minus one occurrence of each
// edge u→v listed (an edge listed twice loses two parallel copies). Like
// WithEdges it never mutates the receiver and copies only the adjacency
// chunks holding an endpoint, so readers holding the old Graph keep a
// consistent snapshot.
//
// The edges must exist; callers check presence first (the database's delete
// path treats an absent edge as a no-op before ever getting here).
func (g *Graph) WithoutEdges(edges [][2]NodeID) *Graph {
	ng := g.successor(edges)
	ng.numEdges = g.numEdges - len(edges)
	ng.fwd = spliceChunks(g.fwd, sortedPairs(edges, false), false)
	ng.rev = spliceChunks(g.rev, sortedPairs(edges, true), false)
	return ng
}

// WithoutEdge returns a new Graph equal to g minus one occurrence of the
// edge u→v: WithoutEdges with one edge.
func (g *Graph) WithoutEdge(u, v NodeID) *Graph {
	return g.WithoutEdges([][2]NodeID{{u, v}})
}
