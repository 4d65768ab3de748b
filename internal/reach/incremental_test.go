package reach_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

// TestIncrementalMatchesBFS: starting from a labeling of a random graph,
// insert a stream of random edges and verify the labeling agrees with BFS
// on the mutated graph after every step — for both labelings.
func TestIncrementalMatchesBFS(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		check := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 24
			g := randomGraph(seed, n, 30, 3)
			inc := newInc(opt, g)

			// Mirror builder to recompute ground truth after each insertion.
			type edge struct{ u, v graph.NodeID }
			var extra []edge
			truth := func() *graph.Graph {
				bld := graph.NewBuilder()
				for i := 0; i < n; i++ {
					bld.AddNodeLabel(bld.Intern(g.LabelNameOf(graph.NodeID(i))))
				}
				for v := graph.NodeID(0); int(v) < n; v++ {
					for _, w := range g.Successors(v) {
						bld.AddEdge(v, w)
					}
				}
				for _, e := range extra {
					bld.AddEdge(e.u, e.v)
				}
				return bld.Build()
			}

			for step := 0; step < 8; step++ {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				extra = append(extra, edge{u, v})
				inc.InsertEdge(u, v)
				tg := truth()
				for x := graph.NodeID(0); int(x) < n; x++ {
					for y := graph.NodeID(0); int(y) < n; y++ {
						if inc.Reaches(x, y) != graph.Reaches(tg, x, y) {
							t.Logf("seed %d step %d: Reaches(%d,%d) wrong after inserting %d->%d",
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

func TestIncrementalRedundantEdgeAddsNothing(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := chainGraph(6)
		inc := newInc(opt, g)
		// 0 already reaches 4 along the chain.
		if deltas := inc.InsertEdge(0, 4); len(deltas) != 0 {
			t.Fatalf("redundant edge added %d labels: %v", len(deltas), deltas)
		}
		if !inc.Reaches(0, 4) {
			t.Fatal("reachability lost")
		}
		// A genuinely new edge (backward) must add labels and close a cycle.
		if deltas := inc.InsertEdge(5, 0); len(deltas) == 0 {
			t.Fatal("cycle-closing edge added no labels")
		}
		for u := graph.NodeID(0); u < 6; u++ {
			for v := graph.NodeID(0); v < 6; v++ {
				if !inc.Reaches(u, v) {
					t.Fatalf("after closing the cycle, Reaches(%d,%d) = false", u, v)
				}
			}
		}
	})
}

func TestIncrementalSizeAccounting(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := chainGraph(8)
		idx := twohop.Compute(g, opt)
		inc := reach.NewIncremental(idx)
		if inc.Size() != idx.Size() {
			t.Fatalf("seed size %d != index size %d", inc.Size(), idx.Size())
		}
		before := inc.Size()
		deltas := inc.InsertEdge(7, 3) // backward edge, new pairs
		if inc.Size() != before+len(deltas) {
			t.Fatalf("size %d != %d + %d", inc.Size(), before, len(deltas))
		}
		// Lists remain sorted and self-free.
		for v := graph.NodeID(0); v < 8; v++ {
			for _, l := range [][]graph.NodeID{inc.In(v), inc.Out(v)} {
				for i := 1; i < len(l); i++ {
					if l[i-1] >= l[i] {
						t.Fatalf("list of %d not sorted after update: %v", v, l)
					}
				}
				for _, w := range l {
					if w == v {
						t.Fatalf("list of %d contains self after update", v)
					}
				}
			}
		}
	})
}

func TestIncrementalIdempotentInsert(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := chainGraph(5)
		inc := newInc(opt, g)
		first := inc.InsertEdge(4, 0)
		if len(first) == 0 {
			t.Fatal("first insert should add labels")
		}
		if again := inc.InsertEdge(4, 0); len(again) != 0 {
			t.Fatalf("re-inserting the same edge added %d labels", len(again))
		}
	})
}

// TestIncrementalInsertDeltas pins the contract ApplyEdgeInsert depends on:
// every delta names the inserted edge's source as its center, the entry is
// actually present in the labeling afterwards, no delta is a self entry,
// and the delta count matches the size growth exactly (no silent extras).
func TestIncrementalInsertDeltas(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := chainGraph(6)
		inc := newInc(opt, g)
		before := inc.Size()
		u, v := graph.NodeID(5), graph.NodeID(1) // backward edge: new pairs
		// Every x ⇝ u must carry u in out(x) afterwards; record which
		// already did, so the delta set can be checked exactly.
		hadOut := map[graph.NodeID]bool{}
		for x := graph.NodeID(0); x < 5; x++ { // 0..4 reach 5 along the chain
			hadOut[x] = containsSorted(inc.Out(x), u)
		}
		deltas := inc.InsertEdge(u, v)
		if len(deltas) == 0 {
			t.Fatal("backward edge added no labels")
		}
		if inc.Size() != before+len(deltas) {
			t.Fatalf("size grew by %d but %d deltas reported", inc.Size()-before, len(deltas))
		}
		seen := make(map[reach.LabelDelta]bool, len(deltas))
		for _, d := range deltas {
			if d.Center != u {
				t.Fatalf("delta %+v: center is not the edge source %d", d, u)
			}
			if d.Node == d.Center {
				t.Fatalf("delta %+v is a self entry", d)
			}
			if seen[d] {
				t.Fatalf("duplicate delta %+v", d)
			}
			seen[d] = true
			list := inc.In(d.Node)
			if d.Out {
				list = inc.Out(d.Node)
			}
			if !containsSorted(list, d.Center) {
				t.Fatalf("delta %+v not present in labeling", d)
			}
		}
		// Cross-check: an out-delta is emitted for exactly the frontier nodes
		// that did not already hold the entry.
		for x, had := range hadOut {
			if got := seen[(reach.LabelDelta{Node: x, Center: u, Out: true})]; got == had {
				t.Fatalf("node %d: had out-entry %v, delta emitted %v", x, had, got)
			}
		}
	})
}

// TestNewIncrementalFromLabels: seeding from materialised label lists must
// behave identically to seeding from the index itself.
func TestNewIncrementalFromLabels(t *testing.T) {
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		g := randomGraph(11, 20, 28, 3)
		idx := twohop.Compute(g, opt)
		n := g.NumNodes()
		in := make([][]graph.NodeID, n)
		out := make([][]graph.NodeID, n)
		for v := graph.NodeID(0); int(v) < n; v++ {
			in[v] = append([]graph.NodeID(nil), idx.In(v)...)
			out[v] = append([]graph.NodeID(nil), idx.Out(v)...)
		}
		a := reach.NewIncremental(idx)
		b := reach.NewIncrementalFromLabels(g, in, out)
		if a.Size() != b.Size() {
			t.Fatalf("size mismatch: %d vs %d", a.Size(), b.Size())
		}
		da := a.InsertEdge(17, 2)
		db := b.InsertEdge(17, 2)
		if len(da) != len(db) {
			t.Fatalf("delta mismatch after same insert: %v vs %v", da, db)
		}
		for x := graph.NodeID(0); int(x) < n; x++ {
			for y := graph.NodeID(0); int(y) < n; y++ {
				if a.Reaches(x, y) != b.Reaches(x, y) {
					t.Fatalf("Reaches(%d,%d) diverges between seedings", x, y)
				}
			}
		}
	})
}

func TestNewIncrementalFromLabelsSizeMismatchPanics(t *testing.T) {
	g := chainGraph(4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched label lists did not panic")
		}
	}()
	reach.NewIncrementalFromLabels(g, make([][]graph.NodeID, 2), make([][]graph.NodeID, 4))
}

func BenchmarkIncrementalInsert(b *testing.B) {
	g := randomGraph(9, 5000, 6000, 8)
	inc := reach.NewIncremental(twohop.Compute(g, twohop.Options{}))
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		inc.InsertEdge(u, v)
	}
}
