package exec

import (
	"context"
	"errors"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// The benchmark below keeps the question of the retired `fgmbench -exp
// wcoj` harness open (EXPERIMENTS.md, "Retired measurements") on the same
// dataset — the 20K-node "20M" ladder point — in the served (decoded) read
// mode. Diff it with `make bench-baseline` / `make bench-compare`.
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
