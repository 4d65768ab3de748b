package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"fastmatch/internal/graph"
)

// skewLabels is the label alphabet of the power-law dataset, L0..L11.
const skewLabels = 12

// powerLawDAG generates the read_skew dataset: a preferential-attachment
// DAG. Node i draws up to two distinct earlier nodes with probability
// proportional to in-degree+1 and points at them (new→old, so the graph is
// acyclic and a few old hubs collect most in-edges). Labels are drawn
// Zipf(1.3) over L0..L11 independently of position, so L0 is both the
// largest extent and, by size, the label most hubs carry.
//
// XMark is tree-like; this is the dataset where hub skew and cyclic
// patterns make plan choice (dp vs dps, WCOJ vs binary) and reachability
// backends diverge.
func powerLawDAG(seed int64, nodes int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.3, 1, skewLabels-1)
	b := graph.NewBuilder()
	labels := make([]graph.Label, skewLabels)
	for i := range labels {
		labels[i] = b.Intern(fmt.Sprintf("L%d", i))
	}
	// urn holds one ticket per node plus one per in-edge: a uniform draw
	// from it is a draw proportional to in-degree+1.
	urn := make([]graph.NodeID, 0, 3*nodes)
	for i := 0; i < nodes; i++ {
		v := b.AddNodeLabel(labels[zipf.Uint64()])
		if i > 0 {
			first := urn[r.Intn(len(urn))]
			b.AddEdge(v, first)
			urn = append(urn, first)
			if i > 1 {
				second := first
				for second == first {
					second = urn[r.Intn(len(urn))]
				}
				b.AddEdge(v, second)
				urn = append(urn, second)
			}
		}
		urn = append(urn, v)
	}
	return b.Build()
}

// graphHash fingerprints a graph's labels and edges; the determinism test
// and the run summary use it to show that a seed fixes the dataset.
func graphHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		binary.LittleEndian.PutUint32(buf[:4], uint32(g.LabelOf(v)))
		h.Write(buf[:4])
		for _, w := range g.Successors(v) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			binary.LittleEndian.PutUint32(buf[4:], uint32(w))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
