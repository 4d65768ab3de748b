package reach_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

// mutableTruth mirrors the edge multiset the Incremental sees, rebuilding a
// ground-truth graph on demand so BFS answers can be compared after every
// mutation.
type mutableTruth struct {
	g     *graph.Graph
	edges map[[2]graph.NodeID]int
}

func newMutableTruth(g *graph.Graph) *mutableTruth {
	m := &mutableTruth{g: g, edges: map[[2]graph.NodeID]int{}}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, w := range g.Successors(v) {
			m.edges[[2]graph.NodeID{v, w}]++
		}
	}
	return m
}

func (m *mutableTruth) insert(u, v graph.NodeID) { m.edges[[2]graph.NodeID{u, v}]++ }

func (m *mutableTruth) delete(u, v graph.NodeID) bool {
	k := [2]graph.NodeID{u, v}
	if m.edges[k] == 0 {
		return false
	}
	m.edges[k]--
	if m.edges[k] == 0 {
		delete(m.edges, k)
	}
	return true
}

func (m *mutableTruth) build() *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < m.g.NumNodes(); i++ {
		b.AddNodeLabel(b.Intern(m.g.LabelNameOf(graph.NodeID(i))))
	}
	for e, n := range m.edges {
		for i := 0; i < n; i++ {
			b.AddEdge(e[0], e[1])
		}
	}
	return b.Build()
}

// TestDeleteEdgeMatchesBFS: random mixed insert/delete streams; after every
// step the labeling must agree with BFS on the mutated graph for all pairs —
// for both labelings.
func TestDeleteEdgeMatchesBFS(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 20
			g := randomGraph(seed, n, 28, 3)
			inc := newInc(opt, g)
			truth := newMutableTruth(g)

			for step := 0; step < 12; step++ {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if rng.Intn(2) == 0 || !inc.HasEdge(u, v) {
					truth.insert(u, v)
					inc.InsertEdge(u, v)
				} else {
					if !truth.delete(u, v) {
						t.Logf("seed %d step %d: truth and labeling disagree on edge %d->%d presence", seed, step, u, v)
						return false
					}
					inc.DeleteEdge(u, v)
				}
				tg := truth.build()
				for x := graph.NodeID(0); int(x) < n; x++ {
					for y := graph.NodeID(0); int(y) < n; y++ {
						if inc.Reaches(x, y) != graph.Reaches(tg, x, y) {
							t.Logf("seed %d step %d: Reaches(%d,%d) wrong after mutating %d->%d",
								seed, step, x, y, u, v)
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeleteEdgeChain: cutting a chain in the middle must sever exactly the
// pairs that crossed the cut.
func TestDeleteEdgeChain(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		const n = 8
		g := chainGraph(n)
		inc := newInc(opt, g)
		deltas := inc.DeleteEdge(3, 4)
		if len(deltas) == 0 {
			t.Fatal("cutting a chain removed no label entries")
		}
		for u := graph.NodeID(0); u < n; u++ {
			for v := graph.NodeID(0); v < n; v++ {
				want := u <= v && !(u <= 3 && v >= 4)
				if got := inc.Reaches(u, v); got != want {
					t.Fatalf("after cut at 3->4: Reaches(%d,%d) = %v, want %v", u, v, got, want)
				}
			}
		}
	})
}

// TestDeleteEdgeAbsentIsNoop: deleting a never-present edge returns nil and
// changes nothing.
func TestDeleteEdgeAbsentIsNoop(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := chainGraph(5)
		inc := newInc(opt, g)
		before := inc.Size()
		if d := inc.DeleteEdge(0, 3); d != nil {
			t.Fatalf("absent-edge delete returned %d deltas", len(d))
		}
		if inc.Size() != before {
			t.Fatalf("absent-edge delete changed size %d -> %d", before, inc.Size())
		}
		if !inc.Reaches(0, 4) {
			t.Fatal("absent-edge delete broke reachability")
		}
	})
}

// TestDeleteEdgeParallelEdges: with two parallel copies of an edge, deleting
// one must keep reachability; deleting the second severs it.
func TestDeleteEdgeParallelEdges(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		b := graph.NewBuilder()
		la := b.Intern("A")
		for i := 0; i < 3; i++ {
			b.AddNodeLabel(la)
		}
		b.AddEdge(0, 1)
		b.AddEdge(0, 1) // parallel copy
		b.AddEdge(1, 2)
		g := b.Build()
		inc := newInc(opt, g)

		inc.DeleteEdge(0, 1)
		if !inc.HasEdge(0, 1) {
			t.Fatal("first delete removed both parallel copies")
		}
		if !inc.Reaches(0, 2) {
			t.Fatal("reachability lost while a parallel copy survives")
		}
		inc.DeleteEdge(0, 1)
		if inc.HasEdge(0, 1) {
			t.Fatal("second delete left a copy behind")
		}
		if inc.Reaches(0, 1) || inc.Reaches(0, 2) {
			t.Fatal("reachability survives with no copies left")
		}
	})
}

// TestDeleteEdgeSizeAndDeltaAccounting: Size must track the deltas exactly,
// removals must name entries that were present, additions entries that are
// present afterwards, and lists stay sorted and self-free.
func TestDeleteEdgeSizeAndDeltaAccounting(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := randomGraph(5, 18, 40, 3)
		inc := newInc(opt, g)
		rng := rand.New(rand.NewSource(13))
		for step := 0; step < 25; step++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if !inc.HasEdge(u, v) {
				inc.InsertEdge(u, v)
				continue
			}
			before := inc.Size()
			deltas := inc.DeleteEdge(u, v)
			removed, added := 0, 0
			for _, d := range deltas {
				if d.Node == d.Center {
					t.Fatalf("step %d: self-entry delta %+v", step, d)
				}
				list := inc.In(d.Node)
				if d.Out {
					list = inc.Out(d.Node)
				}
				if d.Removed {
					removed++
					if containsSorted(list, d.Center) {
						t.Fatalf("step %d: removed delta %+v still present", step, d)
					}
				} else {
					added++
					if !containsSorted(list, d.Center) {
						t.Fatalf("step %d: added delta %+v not present", step, d)
					}
				}
			}
			if want := before - removed + added; inc.Size() != want {
				t.Fatalf("step %d: size %d, want %d (before %d, -%d +%d)",
					step, inc.Size(), want, before, removed, added)
			}
			for x := graph.NodeID(0); int(x) < g.NumNodes(); x++ {
				for _, l := range [][]graph.NodeID{inc.In(x), inc.Out(x)} {
					for i := 1; i < len(l); i++ {
						if l[i-1] >= l[i] {
							t.Fatalf("step %d: list of %d not sorted: %v", step, x, l)
						}
					}
				}
			}
		}
	})
}

// TestDeleteThenReinsert: deleting an edge and re-inserting it restores the
// original reachability relation.
func TestDeleteThenReinsert(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := randomGraph(21, 16, 30, 3)
		inc := newInc(opt, g)
		n := g.NumNodes()
		want := make([][]bool, n)
		for x := graph.NodeID(0); int(x) < n; x++ {
			want[x] = make([]bool, n)
			for y := graph.NodeID(0); int(y) < n; y++ {
				want[x][y] = inc.Reaches(x, y)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for step := 0; step < 10; step++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if !inc.HasEdge(u, v) {
				continue
			}
			inc.DeleteEdge(u, v)
			inc.InsertEdge(u, v)
			for x := graph.NodeID(0); int(x) < n; x++ {
				for y := graph.NodeID(0); int(y) < n; y++ {
					if inc.Reaches(x, y) != want[x][y] {
						t.Fatalf("step %d: Reaches(%d,%d) = %v after delete+reinsert of %d->%d, want %v",
							step, x, y, !want[x][y], u, v, want[x][y])
					}
				}
			}
		}
	})
}

func BenchmarkIncrementalDelete(b *testing.B) {
	g := randomGraph(9, 5000, 6000, 8)
	inc := reach.NewIncremental(twohop.Compute(g, twohop.Options{}))
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if inc.HasEdge(u, v) {
			inc.DeleteEdge(u, v)
		} else {
			inc.InsertEdge(u, v)
		}
	}
}
