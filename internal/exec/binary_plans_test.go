package exec

import (
	"context"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// TestPlansAreBinary: DP and DPS plan every workload battery, and the
// read_skew patterns on a graph of read_skew's shape and size, with the
// paper's operators only — no plan holds a multiway-join step, though on
// these patterns the planners once opened with one. A hand-built step of
// that kind is refused by Plan.Validate and by Run.
func TestPlansAreBinary(t *testing.T) {
	xm := mustSnap(t, xmark.Generate(xmark.Config{Nodes: 3000, Seed: 1}).Graph)
	skew := mustSnap(t, workload.PowerLawDAG(1, 20000))
	type query struct {
		snap    *gdb.Snap
		pattern *pattern.Pattern
	}
	var qs []query
	for _, w := range workload.All() {
		qs = append(qs, query{xm, w.Pattern})
	}
	for _, w := range workload.Skew() {
		qs = append(qs, query{skew, w.Pattern})
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

	bind, err := optimizer.Bind(skew, workload.Skew()[0].Pattern)
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
