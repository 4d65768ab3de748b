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
