package graph

import (
	"math/rand"
	"testing"
)

func buildRandom(t *testing.T, seed int64, n, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNodeLabel(b.Intern(string(rune('A' + i%4))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func TestWithEdgeAddsEdgeAndPreservesOld(t *testing.T) {
	g := buildRandom(t, 1, 10, 15)
	oldEdges := g.NumEdges()
	oldSucc := append([]NodeID(nil), g.Successors(3)...)
	oldPred := append([]NodeID(nil), g.Predecessors(7)...)

	ng := g.WithEdge(3, 7)

	if ng.NumEdges() != oldEdges+1 {
		t.Fatalf("new graph has %d edges, want %d", ng.NumEdges(), oldEdges+1)
	}
	// New graph sees the edge, both directions, sorted.
	found := false
	for _, w := range ng.Successors(3) {
		if w == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("7 not in Successors(3) after WithEdge")
	}
	found = false
	for _, w := range ng.Predecessors(7) {
		if w == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("3 not in Predecessors(7) after WithEdge")
	}
	for v := NodeID(0); int(v) < ng.NumNodes(); v++ {
		for _, adj := range [][]NodeID{ng.Successors(v), ng.Predecessors(v)} {
			for i := 1; i < len(adj); i++ {
				if adj[i-1] > adj[i] {
					t.Fatalf("adjacency of %d not sorted: %v", v, adj)
				}
			}
		}
	}
	// Old graph is untouched.
	if g.NumEdges() != oldEdges {
		t.Fatalf("old graph mutated: %d edges, want %d", g.NumEdges(), oldEdges)
	}
	if !equalNodeIDs(g.Successors(3), oldSucc) {
		t.Fatalf("old Successors(3) mutated: %v vs %v", g.Successors(3), oldSucc)
	}
	if !equalNodeIDs(g.Predecessors(7), oldPred) {
		t.Fatalf("old Predecessors(7) mutated: %v vs %v", g.Predecessors(7), oldPred)
	}
}

func TestWithEdgeEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 12
	g := buildRandom(t, 2, n, 18)
	type edge struct{ u, v NodeID }
	var extra []edge
	cow := g
	for step := 0; step < 20; step++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		// Skip duplicates: Builder dedups, WithEdge does not.
		dup := false
		for _, w := range cow.Successors(u) {
			if w == v {
				dup = true
			}
		}
		if dup {
			continue
		}
		cow = cow.WithEdge(u, v)
		extra = append(extra, edge{u, v})

		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNodeLabel(b.Intern(g.LabelNameOf(NodeID(i))))
		}
		for x := NodeID(0); int(x) < n; x++ {
			for _, w := range g.Successors(x) {
				b.AddEdge(x, w)
			}
		}
		for _, e := range extra {
			b.AddEdge(e.u, e.v)
		}
		want := b.Build()

		if cow.NumEdges() != want.NumEdges() {
			t.Fatalf("step %d: %d edges, rebuild has %d", step, cow.NumEdges(), want.NumEdges())
		}
		for x := NodeID(0); int(x) < n; x++ {
			if !equalNodeIDs(cow.Successors(x), want.Successors(x)) {
				t.Fatalf("step %d: Successors(%d) = %v, rebuild %v",
					step, x, cow.Successors(x), want.Successors(x))
			}
			if !equalNodeIDs(cow.Predecessors(x), want.Predecessors(x)) {
				t.Fatalf("step %d: Predecessors(%d) = %v, rebuild %v",
					step, x, cow.Predecessors(x), want.Predecessors(x))
			}
		}
	}
}

func equalNodeIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWithEdgesBatchEqualsOneAtATime: a batch spliced in or out in one
// copy — several edges per source, parallel copies, an edge listed twice —
// leaves the same adjacency as applying its edges one at a time, and
// leaves the receiver untouched.
func TestWithEdgesBatchEqualsOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 10
	g := buildRandom(t, 3, n, 20)
	same := func(what string, a, b *Graph) {
		t.Helper()
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: %d edges, one at a time %d", what, a.NumEdges(), b.NumEdges())
		}
		for x := NodeID(0); int(x) < n; x++ {
			if !equalNodeIDs(a.Successors(x), b.Successors(x)) || !equalNodeIDs(a.Predecessors(x), b.Predecessors(x)) {
				t.Fatalf("%s: node %d has %v / %v, one at a time %v / %v", what, x,
					a.Successors(x), a.Predecessors(x), b.Successors(x), b.Predecessors(x))
			}
		}
	}
	for round := 0; round < 30; round++ {
		before := g.NumEdges()
		var batch [][2]NodeID
		for len(batch) < 1+rng.Intn(6) {
			batch = append(batch, [2]NodeID{NodeID(rng.Intn(3)), NodeID(rng.Intn(n))})
		}
		batch = append(batch, batch[0]) // a parallel copy within the batch
		seq := g
		for _, e := range batch {
			seq = seq.WithEdge(e[0], e[1])
		}
		grown := g.WithEdges(batch)
		same("insert", grown, seq)
		if g.NumEdges() != before {
			t.Fatalf("WithEdges mutated its receiver: %d edges, want %d", g.NumEdges(), before)
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		drop := batch[:1+rng.Intn(len(batch))]
		seq = grown
		for _, e := range drop {
			seq = seq.WithoutEdge(e[0], e[1])
		}
		same("delete", grown.WithoutEdges(drop), seq)
		g = grown.WithoutEdges(drop)
	}
}

// TestChunkedSpliceMatchesBuilder is the property the chunked adjacency
// must keep: a chain of WithEdges/WithoutEdges batches over random edge
// multisets — parallel copies, self-loops, endpoints on both sides of a
// chunk boundary and in the last, partial chunk — reads exactly like a
// fresh Builder build of the same multiset, list for list and degree for
// degree, and shares every chunk the batch did not touch.
func TestChunkedSpliceMatchesBuilder(t *testing.T) {
	const n = 3*adjChunkSize + 17
	rng := rand.New(rand.NewSource(41))
	node := func() NodeID {
		if rng.Intn(3) == 0 { // near a chunk boundary
			b := NodeID(adjChunkSize * (1 + rng.Intn(3)))
			return b - 2 + NodeID(rng.Intn(4))
		}
		return NodeID(rng.Intn(n))
	}
	var edges [][2]NodeID
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNodeLabel(b.Intern(string(rune('A' + i%3))))
	}
	for i := 0; i < 2*n; i++ {
		e := [2]NodeID{node(), node()}
		edges = append(edges, e)
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	for step := 0; step < 60; step++ {
		batch := make([][2]NodeID, 1+rng.Intn(6))
		insert := rng.Intn(2) == 0 || len(edges) < len(batch)
		for i := range batch {
			if insert {
				batch[i] = [2]NodeID{node(), node()}
				if rng.Intn(4) == 0 && len(edges) > 0 { // a parallel copy
					batch[i] = edges[rng.Intn(len(edges))]
				}
				edges = append(edges, batch[i])
				continue
			}
			j := rng.Intn(len(edges))
			batch[i] = edges[j]
			edges = append(edges[:j], edges[j+1:]...)
		}
		var ng *Graph
		if insert {
			ng = g.WithEdges(batch)
		} else {
			ng = g.WithoutEdges(batch)
		}
		rb := NewBuilder()
		for i := 0; i < n; i++ {
			rb.AddNodeLabel(rb.Intern(string(rune('A' + i%3))))
		}
		for _, e := range edges {
			rb.AddEdge(e[0], e[1])
		}
		want := rb.Build()
		if ng.NumEdges() != want.NumEdges() {
			t.Fatalf("step %d: %d edges, rebuild has %d", step, ng.NumEdges(), want.NumEdges())
		}
		for v := NodeID(0); v < n; v++ {
			if !equalNodeIDs(ng.Successors(v), want.Successors(v)) || ng.OutDegree(v) != want.OutDegree(v) {
				t.Fatalf("step %d: Successors(%d) = %v, rebuild %v", step, v, ng.Successors(v), want.Successors(v))
			}
			if !equalNodeIDs(ng.Predecessors(v), want.Predecessors(v)) || ng.InDegree(v) != want.InDegree(v) {
				t.Fatalf("step %d: Predecessors(%d) = %v, rebuild %v", step, v, ng.Predecessors(v), want.Predecessors(v))
			}
		}
		touched := make(map[NodeID]bool)
		for _, e := range batch {
			touched[e[0]>>adjChunkBits] = true
		}
		for ci := range g.fwd {
			if shared := ng.fwd[ci] == g.fwd[ci]; shared == touched[NodeID(ci)] {
				t.Fatalf("step %d: forward chunk %d shared=%v, touched=%v", step, ci, shared, touched[NodeID(ci)])
			}
		}
		g = ng
	}
}
