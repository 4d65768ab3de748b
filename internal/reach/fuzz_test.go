package reach_test

import (
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

// FuzzIncrementalInsert drives InsertEdge with a fuzz-chosen edge sequence
// on a small random graph and checks two invariants after every step: the
// labeling answers Reaches identically to BFS on the mutated graph, and the reported delta set accounts exactly
// for the size growth with every entry present in the labeling.
//
// Each input byte pair encodes one inserted edge (u, v) = (b[2i]%n,
// b[2i+1]%n); the first byte seeds the base graph so corpus entries cover
// different topologies.
func FuzzIncrementalInsert(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0x07, 0x00, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01})
	f.Add([]byte{0xff, 0x10, 0x20, 0x30, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 64 {
			t.Skip()
		}
		const n = 12
		g := randomGraph(int64(data[0]), n, 16, 3)
		inc := newInc(twohop.Options{}, g)

		// Mirror builder recomputing ground truth per step.
		type edge struct{ u, v graph.NodeID }
		var extra []edge
		truth := func() *graph.Graph {
			b := graph.NewBuilder()
			for i := 0; i < n; i++ {
				b.AddNodeLabel(b.Intern(g.LabelNameOf(graph.NodeID(i))))
			}
			for v := graph.NodeID(0); int(v) < n; v++ {
				for _, w := range g.Successors(v) {
					b.AddEdge(v, w)
				}
			}
			for _, e := range extra {
				b.AddEdge(e.u, e.v)
			}
			return b.Build()
		}

		for i := 1; i+1 < len(data); i += 2 {
			u := graph.NodeID(data[i] % n)
			v := graph.NodeID(data[i+1] % n)
			before := inc.Size()
			deltas := inc.InsertEdge(u, v)
			extra = append(extra, edge{u, v})
			if inc.Size() != before+len(deltas) {
				t.Fatalf("insert %d->%d: size grew by %d, %d deltas",
					u, v, inc.Size()-before, len(deltas))
			}
			for _, d := range deltas {
				if d.Center != u {
					t.Fatalf("insert %d->%d: delta %+v has wrong center", u, v, d)
				}
				if d.Node == d.Center {
					t.Fatalf("insert %d->%d: self delta %+v", u, v, d)
				}
				list := inc.In(d.Node)
				if d.Out {
					list = inc.Out(d.Node)
				}
				if !containsSorted(list, d.Center) {
					t.Fatalf("insert %d->%d: delta %+v missing from labeling", u, v, d)
				}
			}
			tg := truth()
			for x := graph.NodeID(0); int(x) < n; x++ {
				for y := graph.NodeID(0); int(y) < n; y++ {
					if inc.Reaches(x, y) != graph.Reaches(tg, x, y) {
						t.Fatalf("insert %d->%d: Reaches(%d,%d) disagrees with BFS",
							u, v, x, y)
					}
				}
			}
		}
	})
}

// FuzzIncrementalDelete drives a fuzz-chosen mixed insert/delete sequence
// through the labeling and checks the same invariants after every step:
// Reaches identical to BFS on the mutated graph and delta accounting exact.
//
// Each input byte triple encodes one operation: b[3i]'s high bit selects
// delete (deletes of absent edges must be nil no-ops), and (b[3i+1]%n,
// b[3i+2]%n) is the edge. The first byte seeds the base graph.
func FuzzIncrementalDelete(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x02, 0x03, 0x80, 0x02, 0x03})
	f.Add([]byte{0x07, 0x80, 0x06, 0x05, 0x00, 0x04, 0x03, 0x80, 0x04, 0x03})
	f.Add([]byte{0xff, 0x80, 0x10, 0x20, 0x80, 0x30, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 64 {
			t.Skip()
		}
		const n = 12
		g := randomGraph(int64(data[0]), n, 16, 3)
		inc := newInc(twohop.Options{}, g)

		// Edge multiset mirror recomputing ground truth per step.
		edges := map[[2]graph.NodeID]int{}
		for v := graph.NodeID(0); int(v) < n; v++ {
			for _, w := range g.Successors(v) {
				edges[[2]graph.NodeID{v, w}]++
			}
		}
		truth := func() *graph.Graph {
			b := graph.NewBuilder()
			for i := 0; i < n; i++ {
				b.AddNodeLabel(b.Intern(g.LabelNameOf(graph.NodeID(i))))
			}
			for e, cnt := range edges {
				for i := 0; i < cnt; i++ {
					b.AddEdge(e[0], e[1])
				}
			}
			return b.Build()
		}

		for i := 1; i+2 < len(data); i += 3 {
			del := data[i]&0x80 != 0
			u := graph.NodeID(data[i+1] % n)
			v := graph.NodeID(data[i+2] % n)
			before := inc.Size()
			var deltas []reach.LabelDelta
			if del {
				deltas = inc.DeleteEdge(u, v)
				if edges[[2]graph.NodeID{u, v}] == 0 {
					if deltas != nil {
						t.Fatalf("delete of absent %d->%d returned %d deltas", u, v, len(deltas))
					}
					continue
				}
				edges[[2]graph.NodeID{u, v}]--
			} else {
				deltas = inc.InsertEdge(u, v)
				edges[[2]graph.NodeID{u, v}]++
			}
			removed, added := 0, 0
			for _, d := range deltas {
				if d.Node == d.Center {
					t.Fatalf("op %d->%d del=%v: self delta %+v", u, v, del, d)
				}
				list := inc.In(d.Node)
				if d.Out {
					list = inc.Out(d.Node)
				}
				if d.Removed {
					removed++
					if containsSorted(list, d.Center) {
						t.Fatalf("op %d->%d del=%v: removed delta %+v still in labeling", u, v, del, d)
					}
				} else {
					added++
					if !containsSorted(list, d.Center) {
						t.Fatalf("op %d->%d del=%v: delta %+v missing from labeling", u, v, del, d)
					}
				}
			}
			if inc.Size() != before-removed+added {
				t.Fatalf("op %d->%d del=%v: size %d, want %d -%d +%d",
					u, v, del, inc.Size(), before, removed, added)
			}
			tg := truth()
			for x := graph.NodeID(0); int(x) < n; x++ {
				for y := graph.NodeID(0); int(y) < n; y++ {
					if inc.Reaches(x, y) != graph.Reaches(tg, x, y) {
						t.Fatalf("op %d->%d del=%v: Reaches(%d,%d) disagrees with BFS",
							u, v, del, x, y)
					}
				}
			}
		}
	})
}
