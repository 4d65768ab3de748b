// Top-level benchmarks: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 6), driving the same harness as cmd/fgmbench.
// Each benchmark runs its full experiment and reports the headline metric
// as a custom unit, so `go test -bench=. -benchmem` regenerates every
// artifact. Set FGM_BENCH_MULT to scale the datasets (default 0.25 here to
// keep `go test -bench=.` affordable; cmd/fgmbench defaults to 1.0).
package fastmatch_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"fastmatch"
	"fastmatch/internal/bench"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

func benchMult() float64 {
	if s := os.Getenv("FGM_BENCH_MULT"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// runExperiment executes one experiment per benchmark iteration, reporting
// row count so regressions in coverage are visible.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r := bench.NewRunner(benchMult(), 1)
	defer r.Close()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rep, err := r.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rep.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable2 regenerates Table 2 (dataset and 2-hop cover statistics).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig5a regenerates Figure 5(a): TSD vs INT-DP vs DP, 9 paths.
func BenchmarkFig5a(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5b regenerates Figure 5(b): TSD vs INT-DP vs DP, 9 trees.
func BenchmarkFig5b(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig6a regenerates Figure 6(a): DP vs DPS, |Vq|=4 battery A.
func BenchmarkFig6a(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6b regenerates Figure 6(b): DP vs DPS, |Vq|=4 battery B.
func BenchmarkFig6b(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig6c regenerates Figure 6(c): DP vs DPS, |Vq|=5 battery A.
func BenchmarkFig6c(b *testing.B) { runExperiment(b, "fig6c") }

// BenchmarkFig6d regenerates Figure 6(d): DP vs DPS, |Vq|=5 battery B.
func BenchmarkFig6d(b *testing.B) { runExperiment(b, "fig6d") }

// BenchmarkFig7a regenerates Figure 7(a): scalability, path pattern.
func BenchmarkFig7a(b *testing.B) { runExperiment(b, "fig7a") }

// BenchmarkFig7b regenerates Figure 7(b): scalability, tree pattern.
func BenchmarkFig7b(b *testing.B) { runExperiment(b, "fig7b") }

// BenchmarkFig7c regenerates Figure 7(c): scalability, graph pattern.
func BenchmarkFig7c(b *testing.B) { runExperiment(b, "fig7c") }

// BenchmarkIOCost regenerates the Section 6.2 I/O comparison.
func BenchmarkIOCost(b *testing.B) { runExperiment(b, "iocost") }

// BenchmarkParallelQuery measures query throughput through the serving
// layer at 1, 4, and 8 workers. Workers rotate through a mix of path and
// tree patterns, so it also measures plan-cache contention, not just a
// single hot entry. The sequential/parallel ratio shows read-path scaling
// (on multi-core hardware; a single-CPU machine pins all variants to one
// core).
func BenchmarkParallelQuery(b *testing.B) {
	d := xmark.Generate(xmark.Config{Nodes: 6000, Seed: 7, DAG: true})
	eng, err := fastmatch.NewEngine(d.Graph, fastmatch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	// Mix shapes: short paths and trees (execution-dominated) plus larger
	// graph patterns, whose DP/DPS planning cost — exponential in pattern
	// size — is what the plan cache saves.
	var mix []workload.Workload
	mix = append(mix, workload.Paths()[:3]...)
	mix = append(mix, workload.Trees()[:3]...)
	mix = append(mix, workload.Graphs5B()...)
	var patterns []*fastmatch.Pattern
	for _, w := range mix {
		patterns = append(patterns, w.Pattern)
	}

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc := eng.Parallel(fastmatch.ServeConfig{MaxInFlight: workers})
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			// Warm the buffer pool and partner tables (shared across
			// sub-benchmarks) so the first variant isn't charged the
			// cold-start I/O; the plan cache itself stays cold.
			for _, p := range patterns {
				if _, err := eng.QueryPattern(p, fastmatch.DPS); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					p := patterns[int(next.Add(1))%len(patterns)]
					if _, err := svc.QueryPattern(ctx, p, fastmatch.DPS); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			st := svc.Stats()
			if st.Queries > 0 {
				b.ReportMetric(float64(st.PlanCacheHits)/float64(st.Queries), "cachehit/op")
			}
		})
	}
}
