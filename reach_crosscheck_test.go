package fastmatch_test

import (
	"math/rand"
	"reflect"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/twohop"
	"fastmatch/internal/xmark"
)

// Cross-labeling equivalence: a graph has many valid 2-hop labelings — the
// cover gdb.Build computes, the same construction in other landmark orders,
// and whatever a database written by an earlier version stores — but all of
// them must answer the same questions: all-pairs Reaches, and identical
// result rows from an engine built on their codes. A divergence here is a
// labeling or engine bug by construction (one of them contradicts BFS).

// crossGraphs is the graph battery: random digraphs in several density
// regimes (cycle-heavy, sparse, disconnected) plus an XMark-derived graph.
func crossGraphs() map[string]*graph.Graph {
	random := func(seed int64, n, m, nlabels int) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		labels := make([]graph.Label, nlabels)
		for i := range labels {
			labels[i] = b.Intern(string(rune('A' + i)))
		}
		for i := 0; i < n; i++ {
			b.AddNodeLabel(labels[rng.Intn(nlabels)])
		}
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		return b.Build()
	}
	return map[string]*graph.Graph{
		"dense-cyclic": random(21, 200, 800, 3),
		"sparse":       random(22, 300, 330, 4),
		"disconnected": random(23, 250, 120, 2),
		"xmark":        xmark.Generate(xmark.Config{Nodes: 600, Seed: 5}).Graph,
	}
}

// TestReachCrossBackendAgreement builds the cover in every landmark order
// over each battery graph and asserts all-pairs Reaches agreement (anchored
// to BFS truth via the first cover's Verify).
func TestReachCrossBackendAgreement(t *testing.T) {
	orders := []twohop.CenterOrder{twohop.OrderDegreeProduct, twohop.OrderTopological, twohop.OrderRandom}
	for gname, g := range crossGraphs() {
		t.Run(gname, func(t *testing.T) {
			covers := make([]*twohop.Cover, len(orders))
			for i, ord := range orders {
				covers[i] = twohop.Compute(g, twohop.Options{Order: ord, Seed: 1})
			}
			// Anchor: the first cover against BFS truth; the rest against
			// the first (transitively all against truth, without paying the
			// O(|V|²·BFS) verify per cover).
			if err := covers[0].Verify(); err != nil {
				t.Fatalf("%s: %v", orders[0], err)
			}
			n := g.NumNodes()
			for u := graph.NodeID(0); int(u) < n; u++ {
				for v := graph.NodeID(0); int(v) < n; v++ {
					want := covers[0].Reaches(u, v)
					for i := 1; i < len(covers); i++ {
						if got := covers[i].Reaches(u, v); got != want {
							t.Fatalf("Reaches(%d,%d): %s says %v, %s says %v",
								u, v, orders[i], got, orders[0], want)
						}
					}
				}
			}
		})
	}
}

// TestReachCrossBackendQueries builds one engine per stored labeling over
// the same XMark graph and asserts identical sorted result rows on the
// pattern battery, DP and DPS.
func TestReachCrossBackendQueries(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 1200, Seed: 9}).Graph
	dbs := make([]*gdb.DB, len(labelings))
	for i, l := range labelings {
		dbs[i] = buildLabeled(t, g, l.opt)
		defer dbs[i].Close()
	}
	for _, w := range diffWorkloads() {
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			want := sortedRows(t, dbs[0], w.Pattern, algo)
			for i := 1; i < len(dbs); i++ {
				got := sortedRows(t, dbs[i], w.Pattern, algo)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: %s returned %d rows, %s returned %d",
						w.Name, algo, labelings[i].name, len(got), labelings[0].name, len(want))
				}
			}
		}
	}
}

// FuzzReachCrossBackend lets the fuzzer shape the graph: whatever digraph
// the bytes encode, both stored labelings must agree with BFS truth on all
// pairs, and an engine built on each must return the same rows for a fixed
// two-edge pattern.
func FuzzReachCrossBackend(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x02, 0x02, 0x03, 0x03, 0x01})
	f.Add(int64(5), []byte{0x00, 0x01, 0x10, 0x11, 0x22, 0x08})
	f.Add(int64(9), []byte{0xff, 0xfe, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			t.Skip()
		}
		const n = 48
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		labels := []graph.Label{b.Intern("A"), b.Intern("B"), b.Intern("C")}
		for i := 0; i < n; i++ {
			b.AddNodeLabel(labels[rng.Intn(len(labels))])
		}
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n))
		}
		g := b.Build()

		p := pattern.MustParse("A->B; B->C")
		var want [][]graph.NodeID
		for i, l := range labelings {
			if err := twohop.Compute(g, l.opt).Verify(); err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			db := buildLabeled(t, g, l.opt)
			rows := sortedRows(t, db, p, exec.DPS)
			db.Close()
			if i == 0 {
				want = rows
			} else if !reflect.DeepEqual(rows, want) {
				t.Fatalf("query rows: %s returned %d, %s returned %d",
					l.name, len(rows), labelings[0].name, len(want))
			}
		}
	})
}
