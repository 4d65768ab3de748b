package exec

import (
	"fmt"

	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// NaiveMatch enumerates all matches of p in g by backtracking over extents,
// checking reachability conditions against g's transitive closure. It is
// exponential in memory-friendly form and serves as ground truth in tests
// and as a no-index baseline on small graphs.
func NaiveMatch(g *graph.Graph, p *pattern.Pattern) (*rjoin.Table, error) {
	return NaiveMatchClosure(g, graph.NewTransitiveClosure(g), p)
}

// NaiveMatchClosure is NaiveMatch against tc, g's transitive closure, built
// once for any number of patterns: it reads neither the 2-hop cover nor
// the cluster index, so it checks the engine's answers independently.
func NaiveMatchClosure(g *graph.Graph, tc *graph.TransitiveClosure, p *pattern.Pattern) (*rjoin.Table, error) {
	labels := make([]graph.Label, p.NumNodes())
	for i, name := range p.Nodes {
		l := g.Labels().Lookup(name)
		if l == graph.InvalidLabel {
			return nil, fmt.Errorf("exec: label %q not in data graph", name)
		}
		labels[i] = l
	}

	// Order pattern nodes so each (after the first) connects to an earlier
	// node, letting partial assignments be checked incrementally.
	order, orderedChecks := matchOrder(p)

	nodes := make([]int, p.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	out := rjoin.NewTable(nodes...)
	assign := make([]graph.NodeID, p.NumNodes())

	var rec func(step int)
	rec = func(step int) {
		if step == len(order) {
			row := make([]graph.NodeID, len(assign))
			copy(row, assign)
			out.Rows = append(out.Rows, row)
			return
		}
		v := order[step]
	candidates:
		for _, cand := range g.Extent(labels[v]) {
			assign[v] = cand
			for _, e := range orderedChecks[step] {
				pe := p.Edges[e]
				if !tc.Reaches(assign[pe.From], assign[pe.To]) {
					continue candidates
				}
			}
			rec(step + 1)
		}
	}
	rec(0)
	return out, nil
}

// matchOrder returns a connected node visit order and, per step, the edges
// fully bound at that step (checkable once the step's node is assigned).
func matchOrder(p *pattern.Pattern) ([]int, [][]int) {
	n := p.NumNodes()
	order := make([]int, 0, n)
	placed := make([]bool, n)
	order = append(order, 0)
	placed[0] = true
	for len(order) < n {
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			connected := false
			for _, e := range p.Edges {
				if (e.From == v && placed[e.To]) || (e.To == v && placed[e.From]) {
					connected = true
					break
				}
			}
			if connected {
				order = append(order, v)
				placed[v] = true
			}
		}
	}
	checks := make([][]int, n)
	seen := make([]bool, n)
	for step, v := range order {
		seen[v] = true
		for ei, e := range p.Edges {
			if (e.From == v || e.To == v) && seen[e.From] && seen[e.To] {
				already := false
				for s := 0; s < step; s++ {
					for _, pe := range checks[s] {
						if pe == ei {
							already = true
						}
					}
				}
				if !already {
					checks[step] = append(checks[step], ei)
				}
			}
		}
	}
	return order, checks
}
