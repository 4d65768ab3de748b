package reach_test

import (
	"math/rand"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

func randomGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

// chainGraph builds a simple path v0→v1→…→v(n-1).
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("X")
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
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

// labelings are the two valid covers the Incremental tests seed from.
// "twohop" is the cover the engine builds; "pll" is the same construction
// in another landmark order, a labeling the engine would not compute. That
// is the position of a database written by the retired pll backend, whose
// subtest name it keeps: Open reattaches such a file and maintenance
// resumes from codes Build did not produce.
var labelings = []struct {
	name string
	opt  twohop.Options
}{
	{"twohop", twohop.Options{}},
	{"pll", twohop.Options{Order: twohop.OrderRandom, Seed: 1}},
}

// forEachLabeling runs f as a subtest once per labeling, so every repair
// invariant is proven on a labeling the engine did not build as well.
func forEachLabeling(t *testing.T, f func(t *testing.T, opt twohop.Options)) {
	t.Helper()
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) { f(t, l.opt) })
	}
}

// newInc seeds the Incremental from a cover of g computed with opt.
func newInc(opt twohop.Options, g *graph.Graph) *reach.Incremental {
	return reach.NewIncremental(twohop.Compute(g, opt))
}
