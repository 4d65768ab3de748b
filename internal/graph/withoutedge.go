package graph

// WithoutEdges returns a new Graph equal to g minus one occurrence of each
// edge u→v listed (an edge listed twice loses two parallel copies). Like
// WithEdges it never mutates the receiver and copies both CSR adjacency
// arrays once, so readers holding the old Graph keep a consistent snapshot.
//
// The edges must exist; callers check presence first (the database's delete
// path treats an absent edge as a no-op before ever getting here).
func (g *Graph) WithoutEdges(edges [][2]NodeID) *Graph {
	ng := g.successor(edges)
	ng.fwdHead, ng.fwdAdj = spliceAdj(g.fwdHead, g.fwdAdj, sortedPairs(edges, false), false)
	ng.revHead, ng.revAdj = spliceAdj(g.revHead, g.revAdj, sortedPairs(edges, true), false)
	return ng
}

// WithoutEdge returns a new Graph equal to g minus one occurrence of the
// edge u→v: WithoutEdges with one edge.
func (g *Graph) WithoutEdge(u, v NodeID) *Graph {
	return g.WithoutEdges([][2]NodeID{{u, v}})
}
