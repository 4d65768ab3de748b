package optimizer

import (
	"fmt"
	"math"
	"slices"

	"fastmatch/internal/pattern"
)

// Hybrid planning with worst-case-optimal multiway R-joins. Binary R-join
// pipelines are asymptotically beaten on cyclic patterns: joining any two
// edges of a triangle first materialises an intermediate that can exceed
// the final result by a factor of sqrt(|E|), whatever the order. The
// planners therefore seed their state spaces with one extra "first step"
// per cyclic core of the pattern — the connected components of its
// non-bridge edges, each 2-edge-connected — evaluated as a single leapfrog
// multiway join (rjoin.WCOJ). Dynamic programming then does the stitching
// for free: if a binary path to the same edge set is cheaper the seed
// loses, otherwise the core executes as one WCOJ step and the surrounding
// tree edges attach through the usual Filter/Fetch/Selection moves.

// cyclicCores returns the pattern's cyclic cores: the connected components
// of its non-bridge edges under the undirected multigraph view (parallel
// and antiparallel edges are distinct, so a pair A→B, B→A forms a core).
// Each component is returned as an ascending edge-index slice; components
// are ordered by smallest edge index. Acyclic patterns return none.
func cyclicCores(pat *pattern.Pattern) [][]int {
	m := pat.NumEdges()
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	isBridge := bridgeSet(pat, all)

	parent := make([]int, pat.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for e := 0; e < m; e++ {
		if !isBridge[e] {
			parent[find(pat.Edges[e].From)] = find(pat.Edges[e].To)
		}
	}
	groups := make(map[int][]int)
	for e := 0; e < m; e++ {
		if !isBridge[e] {
			r := find(pat.Edges[e].From)
			groups[r] = append(groups[r], e)
		}
	}
	cores := make([][]int, 0, len(groups))
	for _, g := range groups {
		cores = append(cores, g)
	}
	slices.SortFunc(cores, func(a, b []int) int { return a[0] - b[0] })
	return cores
}

// bridgeSet reports which of the given pattern edges are bridges of the
// undirected multigraph they span (classic DFS low-link). Edge identity is
// positional: the result is aligned with edges, and a parallel pair is two
// distinct edges, so neither of them can be a bridge.
func bridgeSet(pat *pattern.Pattern, edges []int) []bool {
	n := pat.NumNodes()
	type arc struct{ pos, to int }
	adj := make([][]arc, n)
	for i, e := range edges {
		pe := pat.Edges[e]
		adj[pe.From] = append(adj[pe.From], arc{i, pe.To})
		adj[pe.To] = append(adj[pe.To], arc{i, pe.From})
	}
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	isBridge := make([]bool, len(edges))
	timer := 0
	var dfs func(u, viaPos int)
	dfs = func(u, viaPos int) {
		disc[u], low[u] = timer, timer
		timer++
		for _, a := range adj[u] {
			if a.pos == viaPos {
				continue
			}
			if disc[a.to] == -1 {
				dfs(a.to, a.pos)
				if low[a.to] < low[u] {
					low[u] = low[a.to]
				}
				if low[a.to] > disc[u] {
					isBridge[a.pos] = true
				}
			} else if disc[a.to] < low[u] {
				low[u] = disc[a.to]
			}
		}
	}
	for u := 0; u < n; u++ {
		if disc[u] == -1 && len(adj[u]) > 0 {
			dfs(u, -1)
		}
	}
	return isBridge
}

// wcojVarOrder picks the global variable order for a multiway join over
// the given edges: start at the node with the smallest distinct-projection
// list (the cheapest first trie level), then greedily append the
// most-constrained reachable node — most already-ordered neighbours first,
// smaller projection list breaking ties, node index breaking those — so
// every level after the first intersects at least one bound-partner list.
// All tie-breaks are deterministic; the same binding yields the same order.
func wcojVarOrder(b *Binding, edges []int) []int {
	pat := b.Pattern
	unary := make(map[int]float64)
	seen := func(v int, est float64) {
		if cur, ok := unary[v]; !ok || est < cur {
			unary[v] = est
		}
	}
	for _, e := range edges {
		pe := pat.Edges[e]
		seen(pe.From, b.DF[e])
		seen(pe.To, b.DT[e])
	}
	nodes := make([]int, 0, len(unary))
	for v := range unary {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)

	start := nodes[0]
	for _, v := range nodes[1:] {
		if unary[v] < unary[start] {
			start = v
		}
	}
	order := []int{start}
	placed := map[int]bool{start: true}
	for len(order) < len(nodes) {
		best, bestBound, bestUn := -1, 0, math.Inf(1)
		for _, v := range nodes {
			if placed[v] {
				continue
			}
			boundCnt := 0
			for _, e := range edges {
				pe := pat.Edges[e]
				if (pe.From == v && placed[pe.To]) || (pe.To == v && placed[pe.From]) {
					boundCnt++
				}
			}
			if boundCnt == 0 {
				continue // keep the order connected
			}
			if boundCnt > bestBound || (boundCnt == bestBound && (unary[v] < bestUn || (unary[v] == bestUn && v < best))) {
				best, bestBound, bestUn = v, boundCnt, unary[v]
			}
		}
		if best < 0 {
			break // edge set disconnected; caller detects the short order
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

// agmBound is an AGM-style upper bound on the result of joining the given
// edges: ∏ JS_e^{x_e} for the feasible fractional edge cover x_e = 1 on
// bridges, ½ on cycle edges. The cover is feasible because a node touching
// any cycle edge touches at least two of them (a cycle enters and leaves),
// so every node's cover sum reaches 1. On 2-edge-connected cores this is
// the classic ∏ sqrt(JS_e) triangle bound.
func agmBound(b *Binding, edges []int) float64 {
	if len(edges) == 0 {
		return math.Inf(1)
	}
	isBridge := bridgeSet(b.Pattern, edges)
	r := 1.0
	for i, e := range edges {
		if isBridge[i] {
			r *= b.JS[e]
		} else {
			r *= math.Sqrt(b.JS[e])
		}
	}
	return r
}

// wcojEstimate costs one multiway R-join over edges in the given variable
// order and returns (cost, rows). rows is the planners' path-independent
// independence estimate (∏ extents × ∏ edge selectivities), so a
// WCOJ-seeded optimizer state composes with later binary moves exactly
// like a binary path reaching the same state. The cost's per-level prefix
// sizes are additionally clamped by agmBound over the prefix's induced
// edges — binary pipelines have no such clamp on their intermediates,
// which is precisely where the multiway join wins on dense cyclic cores.
//
// Per level, each prefix pays the bound-partner expansions (a center
// lookup plus IndexPerNode per expected partner, as in Fetch) and a CPU
// share for the leapfrog intersections over prefixes and candidates.
func wcojEstimate(b *Binding, edges, order []int, params CostParams) (cost, rows float64) {
	pat := b.Pattern
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	prefixEst := func(j int) float64 {
		r := 1.0
		for _, v := range order[:j] {
			r *= b.Ext[v]
		}
		for _, e := range edges {
			pe := pat.Edges[e]
			pf, pt := pos[pe.From], pos[pe.To]
			switch {
			case pf < j && pt < j:
				r *= b.sel(e)
			case pf < j:
				r *= b.semiSelFrom(e)
			case pt < j:
				r *= b.semiSelTo(e)
			}
		}
		return r
	}

	cost = params.SearchB * float64(len(edges)) // W-table and projection setup
	prev := 1.0
	for j := 1; j <= len(order); j++ {
		p := prefixEst(j)
		var induced []int
		for _, e := range edges {
			pe := pat.Edges[e]
			if pos[pe.From] < j && pos[pe.To] < j {
				induced = append(induced, e)
			}
		}
		if bound := agmBound(b, induced); p > bound {
			p = bound
		}
		v := order[j-1]
		work := 0.0
		for _, e := range edges {
			pe := pat.Edges[e]
			switch {
			case pe.To == v && pos[pe.From] < j-1:
				work += params.SearchB + params.CodeFetch + params.IndexPerNode*ratio(b.JS[e], b.DF[e])
			case pe.From == v && pos[pe.To] < j-1:
				work += params.SearchB + params.CodeFetch + params.IndexPerNode*ratio(b.JS[e], b.DT[e])
			}
		}
		cost += prev*work + params.CPU*(prev+p)
		prev = p
	}
	return cost, prefixEst(len(order))
}

// wcojSeed is one candidate WCOJ first step: a cyclic core with its chosen
// variable order and estimates, ready to seed a planner's state space.
type wcojSeed struct {
	mask  uint32
	edges []int
	order []int
	cost  float64
	rows  float64
}

// wcojSeeds returns one seed per cyclic core of the pattern. The planners
// inject these before expansion, so each core competes as a single
// multiway step against every binary pipeline covering the same edges;
// acyclic patterns (and params.NoWCOJ) yield none, leaving the binary
// search space untouched.
func wcojSeeds(b *Binding, params CostParams) []wcojSeed {
	if params.NoWCOJ {
		return nil
	}
	var seeds []wcojSeed
	for _, core := range cyclicCores(b.Pattern) {
		order := wcojVarOrder(b, core)
		cost, rows := wcojEstimate(b, core, order, params)
		var mask uint32
		for _, e := range core {
			mask |= 1 << uint(e)
		}
		seeds = append(seeds, wcojSeed{mask: mask, edges: core, order: order, cost: cost, rows: rows})
	}
	return seeds
}

// OptimizeWCOJ builds the forced single-step plan evaluating the whole
// pattern as one worst-case-optimal multiway R-join. Any connected pattern
// qualifies — the operator only needs every variable constrained at its
// level, which connectivity through the order guarantees. The plan exists
// for differential testing and benchmarking against the binary planners;
// cost-based selection goes through the hybrid DP/DPS path instead.
func OptimizeWCOJ(b *Binding, params CostParams) (*Plan, error) {
	pat := b.Pattern
	m := pat.NumEdges()
	if m == 0 {
		return nil, patternErrorf("optimizer: WCOJ needs at least one edge")
	}
	if m > 30 || pat.NumNodes() > 30 {
		return nil, patternErrorf("optimizer: pattern with %d nodes/%d edges too large for WCOJ", pat.NumNodes(), m)
	}
	edges := make([]int, m)
	for i := range edges {
		edges[i] = i
	}
	order := wcojVarOrder(b, edges)
	if len(order) != pat.NumNodes() {
		return nil, patternErrorf("optimizer: WCOJ requires a connected pattern")
	}
	cost, rows := wcojEstimate(b, edges, order, params)
	plan := &Plan{
		Binding:       b,
		EstimatedCost: cost,
		EstimatedRows: rows,
		Algorithm:     "WCOJ",
		Steps: []Step{{
			Kind: StepWCOJ, Edges: edges, VarOrder: order,
			EstCost: cost, EstRows: rows,
		}},
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: WCOJ produced invalid plan: %w", err)
	}
	return plan, nil
}
