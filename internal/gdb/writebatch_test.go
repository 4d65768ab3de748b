package gdb

import (
	"math/rand"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// writePairs returns count batches of size edges, none of which is a
// self-loop, present in g, or repeated (the served benchmark's writer
// schedule), so inserting and then deleting a batch restores g exactly.
func writePairs(seed int64, g *graph.Graph, count, size int) [][][2]graph.NodeID {
	r := rand.New(rand.NewSource(seed ^ 0x3d6e))
	seen := make(map[[2]graph.NodeID]bool)
	batches := make([][][2]graph.NodeID, count)
	for i := range batches {
		for len(batches[i]) < size {
			e := [2]graph.NodeID{graph.NodeID(r.Intn(g.NumNodes())), graph.NodeID(r.Intn(g.NumNodes()))}
			if e[0] == e[1] || seen[e] || hasEdgeIn(g, e[0], e[1]) {
				continue
			}
			seen[e] = true
			batches[i] = append(batches[i], e)
		}
	}
	return batches
}

func hasEdgeIn(g *graph.Graph, u, v graph.NodeID) bool {
	for _, w := range g.Successors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// insertDeletePair applies one batch as an insert and then as a delete,
// failing unless both apply every edge.
func insertDeletePair(tb testing.TB, db *DB, batch [][2]graph.NodeID) {
	tb.Helper()
	ins, err := db.ApplyEdgeInserts(batch)
	if err != nil || len(ins) != len(batch) {
		tb.Fatalf("insert %v: %d applied, %v", batch, len(ins), err)
	}
	del, err := db.ApplyEdgeDeletes(batch)
	if err != nil || len(del) != len(batch) {
		tb.Fatalf("delete %v: %d applied, %v", batch, len(del), err)
	}
	for i, st := range del {
		if st.Missing {
			tb.Fatalf("delete %v: edge %d missing", batch, i)
		}
	}
}

// BenchmarkWriteBatch times the writer as the served mixed_rw workload
// drives it: one op is a 4-edge insert batch and the delete batch that
// undoes it, on XMark 100k (seed 1) with a 64 MB pool. Each op leaves the
// graph as it found it, so the page store should not grow with the op
// count: pages/pair is how many pages the store grew per op, and
// store_ratio the store's size at the end over its built size.
func BenchmarkWriteBatch(b *testing.B) {
	g := xmark.Generate(xmark.Config{Nodes: 100000, Seed: 1}).Graph
	db, err := Build(g, Options{PoolBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	batches := writePairs(1, g, 256, 4)
	built := db.SizeBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertDeletePair(b, db, batches[i%len(batches)])
	}
	b.StopTimer()
	b.ReportMetric(float64(db.SizeBytes()-built)/4096/float64(b.N), "pages/pair")
	b.ReportMetric(float64(db.SizeBytes())/float64(built), "store_ratio")
}
