package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly at 2k nodes, both kinds of run, and
// requires exactly the metrics BENCHMARK.json declares: each name once,
// with the declared unit and a finite value.
func TestSmoke(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(specs))
	}
	endToEnd := make(map[string]string)
	for _, d := range man.EndToEnd {
		endToEnd[d.Name] = d.Unit
	}
	perLayer := make(map[string]string)
	for _, d := range man.PerLayer {
		perLayer[d.Name] = d.Unit
	}
	cfg := config{seed: 1, dataSeed: 1, window: 400 * time.Millisecond, nodes: naiveNodes, outDir: t.TempDir()}
	for i, s := range specs {
		if w := man.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		t.Run(s.name, func(t *testing.T) {
			for _, run := range []struct {
				kind string
				f    func(spec, config) (*result, error)
				want map[string]string
			}{
				{"end-to-end", runEndToEnd, endToEnd},
				{"per-layer", runPerLayer, perLayer},
			} {
				r, err := run.f(s, cfg)
				if err != nil {
					t.Fatalf("%s: %v", run.kind, err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", run.kind, r.Correct, r.Attempted, r.Failed)
				}
				// metrics.add panics on a second value for one name, so a
				// name present here was emitted exactly once.
				if len(r.Metrics.names) != len(run.want) {
					t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", run.kind, len(r.Metrics.names), len(run.want))
				}
				for name, unit := range run.want {
					v, ok := r.Metrics.vals[name]
					switch {
					case !ok:
						t.Errorf("%s: %s not emitted", run.kind, name)
					case v.Unit != unit:
						t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", run.kind, name, v.Unit, unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: %s = %v", run.kind, name, v.Value)
					}
				}
			}
		})
	}
}

// TestSeedFixesInputs checks that a seed determines the graph, the schedule
// and the write batches, and that another seed changes all three.
func TestSeedFixesInputs(t *testing.T) {
	type inputs struct {
		graph    uint64
		schedule []int
		batches  [][][2]int32
	}
	gen := func(seed int64) inputs {
		g := powerLawDAG(seed, naiveNodes)
		in := inputs{graph: graphHash(g), schedule: append(schedule(seed, 0, 0, 28), schedule(seed, 1, 3, 28)...)}
		for _, b := range writeBatches(seed, g, 4, writeBatchSize) {
			var edges [][2]int32
			for _, e := range b {
				if hasEdge(g, e[0], e[1]) || e[0] == e[1] {
					t.Errorf("seed %d: write batch holds %v, a self-loop or an edge of the graph", seed, e)
				}
				edges = append(edges, [2]int32{int32(e[0]), int32(e[1])})
			}
			in.batches = append(in.batches, edges)
		}
		return in
	}
	a, again, b := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, again) {
		t.Errorf("seed 1 gave two different sets of inputs:\n%v\n%v", a, again)
	}
	if a.graph == b.graph || reflect.DeepEqual(a.schedule, b.schedule) || reflect.DeepEqual(a.batches, b.batches) {
		t.Errorf("seeds 1 and 2 share a graph, a schedule or write batches")
	}
	for _, s := range specs {
		if g1, g2 := graphHash(s.generate(1, naiveNodes)), graphHash(s.generate(1, naiveNodes)); g1 != g2 {
			t.Errorf("%s: seed 1 generated two different graphs", s.name)
		}
	}
}
