package optimizer

import (
	"errors"
	"strings"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
)

// tierGraph has one A, two B and one C, with C→A→B: A⇝B and C⇝A hold,
// B⇝A does not, so W(B, A) = ∅.
func tierGraph() *graph.Graph {
	b := graph.NewBuilder()
	a, b1, c := b.AddNode("A"), b.AddNode("B"), b.AddNode("C")
	b.AddNode("B")
	b.AddEdge(a, b1)
	b.AddEdge(c, a)
	return b.Build()
}

// TestPrefilterTiers: a pattern with an edge whose W table is empty gets
// the single-step tier-2 plan; any other pattern goes on to planning, and
// an unknown label fails like Bind does.
func TestPrefilterTiers(t *testing.T) {
	db := mustDB(t, tierGraph())
	for _, ps := range []string{"A->B", "C->A; A->B"} {
		if plan, err := Prefilter(db, pattern.MustParse(ps)); plan != nil || err != nil {
			t.Fatalf("%s: Prefilter = %v, %v; want nil, nil", ps, plan, err)
		}
	}
	for _, ps := range []string{"B->A", "C->A; B->A"} {
		plan, err := Prefilter(db, pattern.MustParse(ps))
		if err != nil || plan == nil {
			t.Fatalf("%s: Prefilter = %v, %v; want a tier-2 plan", ps, plan, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		if plan.Tier() != 2 || !strings.Contains(plan.String(), "tier 2: impossible pattern (fan-signature prefilter)") {
			t.Fatalf("%s: tier %d\n%s", ps, plan.Tier(), plan)
		}
		if len(plan.Binding.Conds) != plan.Binding.Pattern.NumEdges() {
			t.Fatalf("%s: %d conditions", ps, len(plan.Binding.Conds))
		}
	}
	if _, err := Prefilter(db, pattern.MustParse("A->Z")); !errors.Is(err, ErrPattern) {
		t.Fatalf("unknown label: %v, want ErrPattern", err)
	}
}

// TestClassifyPlannedShapes: a single-edge plan is index-only (a point
// probe when both extents are singletons), and Classify leaves a labelled
// plan alone.
func TestClassifyPlannedShapes(t *testing.T) {
	db := mustDB(t, tierGraph())
	for _, tc := range []struct {
		pattern string
		probe   bool
	}{{"A->B", false}, {"C->A", true}} {
		b, err := Bind(db, pattern.MustParse(tc.pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []func(*Binding, CostParams) (*Plan, error){OptimizeDP, OptimizeDPS} {
			plan, err := f(b, DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			if plan.Tier() != 3 {
				t.Fatalf("%s: unclassified plan has tier %d", tc.pattern, plan.Tier())
			}
			Classify(plan)
			if plan.Tier() != 1 || plan.Fast.Probe != tc.probe || !strings.Contains(plan.String(), "tier 1: index-only (") {
				t.Fatalf("%s: tier %d probe %v\n%s", tc.pattern, plan.Tier(), plan.Fast.Probe, plan)
			}
			fast := plan.Fast
			Classify(plan)
			if plan.Fast != fast {
				t.Fatalf("%s: Classify relabelled a classified plan", tc.pattern)
			}
		}
	}
}

// TestClassifyHandBuiltShapes pins each head kind and the fetch rule on
// plans built by hand over the chain C→A→B→D.
func TestClassifyHandBuiltShapes(t *testing.T) {
	p := pattern.MustParse("C->A; A->B; B->D")
	bind := &Binding{Pattern: p, Ext: []float64{3, 3, 3, 3}}
	hpsj := func(e int) Step { return Step{Kind: StepHPSJ, Edges: []int{e}} }
	fetch := func(e int) Step { return Step{Kind: StepFetch, Edges: []int{e}} }
	for _, tc := range []struct {
		name  string
		steps []Step
		index string // "" = stays tier 3
	}{
		{"hpsj head, fetches from its bindings", []Step{hpsj(1), fetch(0), fetch(2)}, "W-table center list"},
		{"semijoin head", []Step{{Kind: StepSemijoinGroup, Node: 1, OutSide: true, Edges: []int{1}}, fetch(0), fetch(1)}, "graph codes"},
		{"fetch chain", []Step{hpsj(0), fetch(1), fetch(2)}, ""},
		{"selection after the head", []Step{hpsj(1), fetch(0), {Kind: StepSelection, Edges: []int{2}}}, ""},
		{"fetch head", []Step{fetch(0)}, ""},
	} {
		plan := &Plan{Binding: bind, Steps: tc.steps}
		Classify(plan)
		switch {
		case tc.index == "" && plan.Fast != nil:
			t.Errorf("%s: classified %q, want tier 3", tc.name, plan.Fast.Describe())
		case tc.index != "" && (plan.Fast == nil || !strings.HasPrefix(plan.Fast.Index, tc.index) || plan.Fast.Probe):
			t.Errorf("%s: classified %+v, want tier 1 via %q", tc.name, plan.Fast, tc.index)
		}
	}
	empty := &Plan{Binding: bind}
	if Classify(empty); empty.Fast != nil {
		t.Fatal("a plan with no steps was classified")
	}
}
