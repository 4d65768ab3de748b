package twohop

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fastmatch/internal/graph"
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

func TestCoverOnChain(t *testing.T) {
	g := chainGraph(10)
	c := Compute(g, Options{})
	for u := graph.NodeID(0); int(u) < 10; u++ {
		for v := graph.NodeID(0); int(v) < 10; v++ {
			want := u <= v
			if got := c.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestCoverOnCycle(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("X")
	}
	for i := 0; i < 6; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%6))
	}
	g := b.Build()
	c := Compute(g, Options{})
	for u := graph.NodeID(0); int(u) < 6; u++ {
		for v := graph.NodeID(0); int(v) < 6; v++ {
			if !c.Reaches(u, v) {
				t.Fatalf("cycle: Reaches(%d,%d) = false", u, v)
			}
		}
	}
}

func TestCompactExcludesSelf(t *testing.T) {
	g := chainGraph(5)
	c := Compute(g, Options{})
	for v := graph.NodeID(0); int(v) < 5; v++ {
		for _, w := range c.In(v) {
			if w == v {
				t.Fatalf("In(%d) contains self", v)
			}
		}
		for _, w := range c.Out(v) {
			if w == v {
				t.Fatalf("Out(%d) contains self", v)
			}
		}
	}
}

func TestListsSorted(t *testing.T) {
	g := randomGraph(3, 50, 120, 3)
	c := Compute(g, Options{})
	for v := 0; v < g.NumNodes(); v++ {
		for _, l := range [][]graph.NodeID{c.In(graph.NodeID(v)), c.Out(graph.NodeID(v))} {
			for i := 1; i < len(l); i++ {
				if l[i-1] >= l[i] {
					t.Fatalf("list for node %d not strictly sorted: %v", v, l)
				}
			}
		}
	}
}

// TestCoverMatchesBFS is the core soundness+completeness property: the 2-hop
// labeling must agree with BFS reachability on every pair, for every center
// order, on random graphs (which contain cycles).
func TestCoverMatchesBFS(t *testing.T) {
	orders := []CenterOrder{OrderDegreeProduct, OrderTopological, OrderRandom}
	for _, ord := range orders {
		ord := ord
		t.Run(ord.String(), func(t *testing.T) {
			check := func(seed int64) bool {
				g := randomGraph(seed, 28, 56, 3)
				tc := graph.NewTransitiveClosure(g)
				c := Compute(g, Options{Order: ord, Seed: seed})
				for u := 0; u < g.NumNodes(); u++ {
					for v := 0; v < g.NumNodes(); v++ {
						if c.Reaches(graph.NodeID(u), graph.NodeID(v)) != tc.Reaches(graph.NodeID(u), graph.NodeID(v)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCenterSemantics: w ∈ Out(u) implies u ⇝ w, and w ∈ In(v) implies
// w ⇝ v (label entries are genuine centers on genuine paths).
func TestCenterSemantics(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 30, 70, 4)
		c := Compute(g, Options{})
		for u := 0; u < g.NumNodes(); u++ {
			for _, w := range c.Out(graph.NodeID(u)) {
				if !graph.Reaches(g, graph.NodeID(u), w) {
					return false
				}
			}
			for _, w := range c.In(graph.NodeID(u)) {
				if !graph.Reaches(g, w, graph.NodeID(u)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeProductSmallerThanRandom(t *testing.T) {
	// Not a strict guarantee, but on a mid-sized random graph the
	// degree-product order should essentially always produce a cover no
	// larger than a random order; treat a large regression as a bug.
	g := randomGraph(42, 400, 1200, 5)
	dp := Compute(g, Options{Order: OrderDegreeProduct}).Size()
	rnd := Compute(g, Options{Order: OrderRandom, Seed: 1}).Size()
	if float64(dp) > 1.5*float64(rnd) {
		t.Fatalf("degree-product cover %d vastly larger than random %d", dp, rnd)
	}
}

func TestStats(t *testing.T) {
	g := chainGraph(8)
	c := Compute(g, Options{})
	s := c.Stats()
	if s.Nodes != 8 || s.Edges != 7 || s.Components != 8 {
		t.Fatalf("stats basic fields wrong: %+v", s)
	}
	if s.Size != c.Size() {
		t.Fatalf("stats size %d != cover size %d", s.Size, c.Size())
	}
	if s.Ratio <= 0 {
		t.Fatalf("ratio should be positive: %v", s.Ratio)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestIsCenter(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode("X")
	}
	// 2-cycle {0,1} plus singletons 2, 3.
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	g := b.Build()
	c := Compute(g, Options{})
	// Representative of {0,1} is the smaller node ID, 0.
	if !c.IsCenter(0) {
		t.Fatal("node 0 should be the representative of its SCC")
	}
	if c.IsCenter(1) {
		t.Fatal("node 1 should not be a representative")
	}
	if !c.IsCenter(2) || !c.IsCenter(3) {
		t.Fatal("singleton nodes should be their own representatives")
	}
}

func TestEmptyAndSingleNodeGraphs(t *testing.T) {
	empty := graph.NewBuilder().Build()
	c := Compute(empty, Options{})
	if c.Size() != 0 {
		t.Fatalf("empty graph cover size = %d", c.Size())
	}

	b := graph.NewBuilder()
	b.AddNode("X")
	g := b.Build()
	c = Compute(g, Options{})
	if !c.Reaches(0, 0) {
		t.Fatal("single node should reach itself")
	}
}

func TestSelfLoop(t *testing.T) {
	b := graph.NewBuilder()
	v := b.AddNode("X")
	w := b.AddNode("Y")
	b.AddEdge(v, v)
	b.AddEdge(v, w)
	g := b.Build()
	c := Compute(g, Options{})
	if !c.Reaches(v, v) || !c.Reaches(v, w) || c.Reaches(w, v) {
		t.Fatal("self-loop reachability wrong")
	}
}

func TestCoverSizeReasonable(t *testing.T) {
	// On sparse tree-like graphs the cover ratio should stay small (the
	// paper reports ≈3.5 on XMark-derived graphs).
	g := randomGraph(9, 2000, 2400, 10)
	c := Compute(g, Options{})
	if r := c.Stats().Ratio; r > 20 {
		t.Fatalf("cover ratio suspiciously large: %.2f", r)
	}
}

func BenchmarkComputeSparse(b *testing.B) {
	g := randomGraph(5, 20000, 24000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(g, Options{})
	}
}

func BenchmarkReaches(b *testing.B) {
	g := randomGraph(6, 5000, 10000, 10)
	c := Compute(g, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		c.Reaches(u, v)
	}
}

func TestVerify(t *testing.T) {
	g := randomGraph(77, 40, 90, 3)
	c := Compute(g, Options{})
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// A corrupted cover must be caught: claim an extra bogus center.
	c.out[0] = append([]graph.NodeID{}, c.out[0]...)
	bogus := graph.NodeID(g.NumNodes() - 1)
	if !graph.Reaches(g, 0, bogus) {
		c.out[0] = insertForTest(c.out[0], bogus)
		if err := c.Verify(); err == nil {
			t.Fatal("corrupted cover passed Verify")
		}
	}
}

func insertForTest(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	out := append(s, v)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLabelMinimality pins what pruning buys: the representative of
// component c enters a label of component d only when no higher-ranked
// component h lies between them (c ⇝ h ⇝ d, h ≠ c) — h was labeled first,
// and its labels pruned c's BFS at d. Symmetrically for Out. In particular
// the top-ranked component's members carry nothing but its own
// representative.
func TestLabelMinimality(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		g := randomGraph(seed, 60, 150, 3)
		c := Compute(g, Options{})
		nc := c.scc.NumComponents()
		rank := make([]int, nc)
		for r, comp := range centerOrder(c.scc, Options{}) {
			rank[comp] = r
		}
		closure := make([][]bool, nc) // closure[a][v]: component a reaches node v
		for a := range closure {
			closure[a] = graph.ReachableFrom(g, c.rep[a])
		}
		reaches := func(a, b int32) bool { return closure[a][c.rep[b]] }
		// between finds a component ranked above entry on a path from → to.
		between := func(from, to, entry int32) (int32, bool) {
			for h := int32(0); h < int32(nc); h++ {
				if h != entry && rank[h] < rank[entry] && reaches(from, h) && reaches(h, to) {
					return h, true
				}
			}
			return 0, false
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			cv := c.scc.Comp[v]
			for _, w := range c.In(v) {
				cw := c.compOf[w]
				if cw < 0 || !reaches(cw, cv) {
					t.Fatalf("seed %d: unsound entry %d ∈ In(%d)", seed, w, v)
				}
				if h, ok := between(cw, cv, cw); ok {
					t.Fatalf("seed %d: redundant entry %d ∈ In(%d): higher-ranked component %d between", seed, w, v, h)
				}
			}
			for _, w := range c.Out(v) {
				cw := c.compOf[w]
				if cw < 0 || !reaches(cv, cw) {
					t.Fatalf("seed %d: unsound entry %d ∈ Out(%d)", seed, w, v)
				}
				if h, ok := between(cv, cw, cw); ok {
					t.Fatalf("seed %d: redundant entry %d ∈ Out(%d): higher-ranked component %d between", seed, w, v, h)
				}
			}
		}
		top := centerOrder(c.scc, Options{})[0]
		for _, v := range c.scc.Members(top) {
			for _, l := range [][]graph.NodeID{c.In(v), c.Out(v)} {
				for _, w := range l {
					if w != c.rep[top] {
						t.Fatalf("seed %d: node %d of the top-ranked component carries %d", seed, v, w)
					}
				}
			}
		}
	}
}
