package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/reach"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// The two benchmarks below keep the questions of the retired `fgmbench -exp
// wcoj` and `-exp reach` harnesses open (EXPERIMENTS.md, "Retired
// measurements") on the same dataset — the 20K-node "20M" ladder point —
// in the served (decoded) read mode. Diff them with `make bench-baseline`
// / `make bench-compare`.
func benchGraph() *graph.Graph {
	return xmark.Generate(xmark.Config{Nodes: 20000, Seed: 1}).Graph
}

// BenchmarkCyclicPlans runs each cyclic-core query under the hybrid DPS
// plan (free to open with a WCOJ step), the binary pipeline it is forced
// into by CostParams.NoWCOJ, and one forced full-pattern WCOJ. The three
// must agree on the row count before any is timed.
func BenchmarkCyclicPlans(b *testing.B) {
	snap := mustSnap(b, benchGraph())
	ctx := context.Background()
	binaryOnly := optimizer.DefaultCostParams()
	binaryOnly.NoWCOJ = true
	for _, w := range workload.Cyclic() {
		bind, err := optimizer.Bind(snap, w.Pattern)
		if err != nil {
			b.Fatal(err)
		}
		hybrid, err1 := optimizer.OptimizeDPS(bind, optimizer.DefaultCostParams())
		binary, err2 := optimizer.OptimizeDPS(bind, binaryOnly)
		wcoj, err3 := optimizer.OptimizeWCOJ(bind, optimizer.DefaultCostParams())
		if err := errors.Join(err1, err2, err3); err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		variants := []struct {
			name string
			plan *optimizer.Plan
		}{{"hybrid", hybrid}, {"binary", binary}, {"wcoj", wcoj}}
		rows := -1
		for _, v := range variants {
			res, err := RunSnapConfig(ctx, snap, v.plan, RunConfig{})
			if err != nil {
				b.Fatalf("%s/%s: %v", w.Name, v.name, err)
			}
			if rows >= 0 && res.Len() != rows {
				b.Fatalf("%s/%s: %d rows, the other plans returned %d", w.Name, v.name, res.Len(), rows)
			}
			rows = res.Len()
		}
		for _, v := range variants {
			b.Run(w.Name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunSnapConfig(ctx, snap, v.plan, RunConfig{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

// BenchmarkReachBackends compares every registered reachability backend:
// labeling build, one Reaches probe, and the Figure 7(c) query over a
// database built from the backend's codes, with labels per node as a
// metric. All backends must agree on the probes and the query's row count
// before any is timed.
func BenchmarkReachBackends(b *testing.B) {
	g := benchGraph()
	p := workload.ScalabilityGraph().Pattern
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]graph.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
	}
	type built struct {
		backend reach.Backend
		idx     reach.Index
		db      *gdb.DB
	}
	var all []built
	reachable, rows := -1, -1
	for _, name := range reach.Names() {
		backend, err := reach.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		idx := backend.Build(g, reach.Options{})
		db, err := gdb.BuildFromIndex(g, idx, gdb.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		n := 0
		for _, pr := range pairs {
			if idx.Reaches(pr[0], pr[1]) {
				n++
			}
		}
		res, err := Query(db, p, DPS)
		if err != nil {
			b.Fatal(err)
		}
		if reachable >= 0 && (n != reachable || res.Len() != rows) {
			b.Fatalf("%s: %d reachable pairs and %d rows, %s has %d and %d",
				name, n, res.Len(), all[0].backend.Name(), reachable, rows)
		}
		reachable, rows = n, res.Len()
		all = append(all, built{backend, idx, db})
	}
	for _, x := range all {
		b.Run(x.backend.Name()+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.backend.Build(g, reach.Options{})
			}
			b.ReportMetric(x.idx.Stats().Ratio, "labels/node")
		})
		b.Run(x.backend.Name()+"/reaches", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				x.idx.Reaches(pr[0], pr[1])
			}
		})
		b.Run(x.backend.Name()+"/query", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Query(x.db, p, DPS); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
