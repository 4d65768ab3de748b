package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// powerLawDAG is the shape of the served benchmark's read_skew dataset: a
// preferential-attachment DAG where node i points at up to two earlier
// nodes drawn in proportion to in-degree+1, labelled Zipf(1.3) over
// L0..L11, so a few old hubs collect most in-edges.
func powerLawDAG(seed int64, nodes int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.3, 1, 11)
	b := graph.NewBuilder()
	labels := make([]graph.Label, 12)
	for i := range labels {
		labels[i] = b.Intern(fmt.Sprintf("L%d", i))
	}
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

// skewPatterns are read_skew's cyclic queries: triangles, diamonds and a
// tailed triangle on hub-heavy labels.
var skewPatterns = []string{
	"L3->L1; L1->L0; L3->L0",
	"L5->L2; L2->L0; L5->L0",
	"L6->L4; L4->L2; L6->L2",
	"L4->L2; L4->L3; L2->L1; L3->L1",
	"L7->L5; L7->L6; L5->L3; L6->L3",
	"L9->L6; L6->L4; L9->L4; L4->L8",
}

// TestPlansAreBinary: DP and DPS plan every workload battery, and the
// read_skew patterns on a graph of read_skew's shape and size, with the
// paper's operators only — no plan holds a multiway-join step, though on
// these patterns the planners once opened with one. A hand-built step of
// that kind is refused by Plan.Validate and by Run.
func TestPlansAreBinary(t *testing.T) {
	xm := mustSnap(t, xmark.Generate(xmark.Config{Nodes: 3000, Seed: 1}).Graph)
	skew := mustSnap(t, powerLawDAG(1, 20000))
	type query struct {
		snap    *gdb.Snap
		pattern *pattern.Pattern
	}
	var qs []query
	for _, w := range workload.All() {
		qs = append(qs, query{xm, w.Pattern})
	}
	for _, ps := range skewPatterns {
		qs = append(qs, query{skew, pattern.MustParse(ps)})
	}
	for _, q := range qs {
		for _, algo := range []Algorithm{DP, DPS} {
			plan, err := BuildPlanSnapConfig(q.snap, q.pattern, algo, PlanConfig{})
			if err != nil {
				t.Fatalf("%s %v: %v", q.pattern, algo, err)
			}
			for _, s := range plan.Steps {
				if s.Kind == optimizer.StepWCOJ {
					t.Fatalf("%s %v: plan holds a multiway-join step:\n%s", q.pattern, algo, plan)
				}
			}
		}
	}

	bind, err := optimizer.Bind(skew, pattern.MustParse(skewPatterns[0]))
	if err != nil {
		t.Fatal(err)
	}
	plan := &optimizer.Plan{Binding: bind, Steps: []optimizer.Step{{Kind: optimizer.StepWCOJ, Edges: []int{0, 1, 2}}}}
	if err := plan.Validate(); err == nil {
		t.Fatal("Validate accepted a multiway-join step")
	}
	if _, _, err := Run(context.Background(), skew, plan, false, RunConfig{}); err == nil {
		t.Fatal("Run executed a multiway-join step")
	}
}
