package optimizer

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
)

func randomGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < nlabels; i++ {
		b.Intern(string(rune('A' + i))) // ensure all labels exist
	}
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func mustDB(t testing.TB, g *graph.Graph) *gdb.Snap {
	t.Helper()
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, release := dbx.Pin()
	t.Cleanup(func() {
		release()
		dbx.Close()
	})
	return db
}

var testPatterns = []string{
	"A->B",
	"A->B; B->C",
	"A->B; A->C",
	"A->C; B->C",
	"A->C; B->C; C->D; D->E",
	"A->B; B->C; A->C",
	"A->B; B->C; C->D; A->D",
	"A->B; A->C; B->D; C->D",
}

func TestBindResolvesStats(t *testing.T) {
	g := randomGraph(1, 80, 200, 5)
	db := mustDB(t, g)
	p := pattern.MustParse("A->C; B->C; C->D; D->E")
	b, err := Bind(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Labels) != 5 || len(b.Conds) != 4 {
		t.Fatalf("binding sizes wrong: %d labels %d conds", len(b.Labels), len(b.Conds))
	}
	for i, ext := range b.Ext {
		if ext <= 0 {
			t.Fatalf("Ext[%d] = %v", i, ext)
		}
	}
	for e := range b.Conds {
		if b.JS[e] < 0 || b.DF[e] < 0 || b.DT[e] < 0 {
			t.Fatalf("negative stats at edge %d", e)
		}
		if b.JS[e] > b.DF[e]*b.DT[e] {
			t.Fatalf("JS not clamped: %v > %v*%v", b.JS[e], b.DF[e], b.DT[e])
		}
	}
}

func TestBindUnknownLabel(t *testing.T) {
	g := randomGraph(2, 30, 60, 3)
	db := mustDB(t, g)
	p := pattern.MustParse("A->Z")
	if _, err := Bind(db, p); err == nil || !strings.Contains(err.Error(), "Z") {
		t.Fatalf("expected unknown-label error, got %v", err)
	}
}

func TestDPPlansValid(t *testing.T) {
	g := randomGraph(3, 120, 300, 5)
	db := mustDB(t, g)
	for _, ps := range testPatterns {
		b, err := Bind(db, pattern.MustParse(ps))
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		plan, err := OptimizeDP(b, DefaultCostParams())
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s: invalid DP plan: %v\n%s", ps, err, plan)
		}
		if plan.Steps[0].Kind != StepHPSJ {
			t.Fatalf("%s: DP plan must start with HPSJ:\n%s", ps, plan)
		}
		if plan.EstimatedCost <= 0 {
			t.Fatalf("%s: nonpositive cost %v", ps, plan.EstimatedCost)
		}
		if plan.Algorithm != "DP" {
			t.Fatalf("algorithm = %q", plan.Algorithm)
		}
	}
}

func TestDPSPlansValid(t *testing.T) {
	g := randomGraph(4, 120, 300, 5)
	db := mustDB(t, g)
	for _, ps := range testPatterns {
		b, err := Bind(db, pattern.MustParse(ps))
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		plan, err := OptimizeDPS(b, DefaultCostParams())
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s: invalid DPS plan: %v\n%s", ps, err, plan)
		}
		if plan.Algorithm != "DPS" {
			t.Fatalf("algorithm = %q", plan.Algorithm)
		}
	}
}

// TestDPSNotWorseThanDP: under the shared cost model, the DPS move space
// can express every DP plan shape plus semijoin interleavings, so its
// estimated cost should not exceed DP's by more than the tiny CPU term of
// extra grouped semijoins.
func TestDPSNotWorseThanDP(t *testing.T) {
	g := randomGraph(5, 200, 500, 5)
	db := mustDB(t, g)
	for _, ps := range testPatterns {
		b, err := Bind(db, pattern.MustParse(ps))
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		dp, err := OptimizeDP(b, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		dps, err := OptimizeDPS(b, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		if dps.EstimatedCost > dp.EstimatedCost*1.10+1 {
			t.Errorf("%s: DPS est %.1f far above DP est %.1f", ps, dps.EstimatedCost, dp.EstimatedCost)
		}
	}
}

func TestDPSUsesSemijoinsOnStar(t *testing.T) {
	// A star pattern C with in-edges from A,B and out-edges to D,E is the
	// paper's canonical case for semijoin sharing: scanning C's codes once
	// serves several conditions.
	g := randomGraph(6, 300, 800, 5)
	db := mustDB(t, g)
	b, err := Bind(db, pattern.MustParse("A->C; B->C; C->D; C->E"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := OptimizeDPS(b, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	hasSemi := false
	for _, s := range plan.Steps {
		if s.Kind == StepSemijoinGroup {
			hasSemi = true
		}
	}
	if !hasSemi {
		t.Fatalf("DPS plan for a star pattern should interleave semijoins:\n%s", plan)
	}
}

func TestPlanString(t *testing.T) {
	g := randomGraph(7, 100, 250, 5)
	db := mustDB(t, g)
	b, err := Bind(db, pattern.MustParse("A->C; B->C; C->D"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(*Binding, CostParams) (*Plan, error){OptimizeDP, OptimizeDPS} {
		plan, err := f(b, DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		s := plan.String()
		if !strings.Contains(s, "plan") || !strings.Contains(s, "->") {
			t.Fatalf("unhelpful plan string: %q", s)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	g := randomGraph(8, 60, 150, 5)
	db := mustDB(t, g)
	b, err := Bind(db, pattern.MustParse("A->B; B->C"))
	if err != nil {
		t.Fatal(err)
	}
	hpsj0 := Step{Kind: StepHPSJ, Edges: []int{0}}
	bad := []*Plan{
		{Binding: b, Steps: []Step{hpsj0}},                                                                     // edge 1 never done
		{Binding: b, Steps: []Step{{Kind: StepFetch, Edges: []int{0}}}},                                        // fetch with nothing bound
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepHPSJ, Edges: []int{1}}}},                                  // HPSJ mid-plan
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSelection, Edges: []int{1}}}},                             // selection with unbound side
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSemijoinGroup, Node: 0, Edges: nil}}},                     // empty group
		{Binding: b, Steps: []Step{{Kind: StepHPSJ, Edges: []int{0, 1}}}},                                      // HPSJ over two edges
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepFetch, Edges: []int{0}}}},                                 // edge fetched twice
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepFetch, Edges: []int{1, 0}}}},                              // fetch over two edges
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSelection, Edges: []int{0}}}},                             // selection of a done edge
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSelection, Edges: []int{0, 1}}}},                          // selection over two edges
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSemijoinGroup, Node: 2, Edges: []int{1}}}},                // group on an unbound node
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSemijoinGroup, Node: 1, OutSide: true, Edges: []int{0}}}}, // group on a done edge
		{Binding: b, Steps: []Step{hpsj0, {Kind: StepSemijoinGroup, Node: 1, Edges: []int{1}}}},                // edge not on the in-side
		{Binding: b, Steps: []Step{{Kind: StepWCOJ, Edges: []int{0, 1}}}},                                      // retired multiway join
		{Binding: b, Steps: []Step{{Kind: StepKind(99)}}},                                                      // unknown kind
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
}

func TestStepKindString(t *testing.T) {
	kinds := []StepKind{StepHPSJ, StepSemijoinGroup, StepFetch, StepJoinFilterFetch, StepSelection, StepKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", int(k))
		}
	}
}

// TestPatternErrors: the failures a pattern causes — an unknown label, a
// disconnected pattern for DP, too many nodes for DPS — are ErrPattern, so
// a caller can tell them from storage errors met in Bind.
func TestPatternErrors(t *testing.T) {
	g := randomGraph(11, 200, 600, 17)
	db := mustDB(t, g)
	if _, err := Bind(db, pattern.MustParse("A->Z")); !errors.Is(err, ErrPattern) {
		t.Fatalf("unknown label: %v, want ErrPattern", err)
	}
	// The parser refuses a disconnected pattern; a caller building one by
	// hand still gets a typed error.
	disconnected, err := Bind(db, &pattern.Pattern{Nodes: []string{"A", "B", "C", "D"}, Edges: []pattern.Edge{{From: 0, To: 1}, {From: 2, To: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeDP(disconnected, DefaultCostParams()); !errors.Is(err, ErrPattern) {
		t.Fatalf("DP on a disconnected pattern: %v, want ErrPattern", err)
	}
	var chain []string
	for c := 'A'; c < 'Q'; c++ {
		chain = append(chain, string(c)+"->"+string(c+1))
	}
	long, err := Bind(db, pattern.MustParse(strings.Join(chain, "; ")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeDPS(long, DefaultCostParams()); !errors.Is(err, ErrPattern) {
		t.Fatalf("DPS over 17 nodes: %v, want ErrPattern", err)
	}
}

// TestSameStats: two bindings of one pattern on one snapshot agree, and
// any changed statistic tells them apart.
func TestSameStats(t *testing.T) {
	g := randomGraph(13, 100, 250, 5)
	db := mustDB(t, g)
	p := pattern.MustParse("A->B; B->C")
	b1, err := Bind(db, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []func(*Binding) []float64{
		func(b *Binding) []float64 { return b.Ext },
		func(b *Binding) []float64 { return b.JS },
		func(b *Binding) []float64 { return b.DF },
		func(b *Binding) []float64 { return b.DT },
		func(b *Binding) []float64 { return b.WCount },
	} {
		b2, err := Bind(db, p)
		if err != nil {
			t.Fatal(err)
		}
		if !b1.SameStats(b2) {
			t.Fatal("two bindings of one snapshot differ")
		}
		field(b2)[0]++
		if b1.SameStats(b2) {
			t.Fatal("a changed statistic went unnoticed")
		}
	}
}

func TestCostParamsMonotone(t *testing.T) {
	c := DefaultCostParams()
	if c.filterCost(100, 2) <= c.filterCost(10, 2) {
		t.Fatal("filterCost should grow with rows")
	}
	if c.fetchCost(10, 1000) <= c.fetchCost(10, 10) {
		t.Fatal("fetchCost should grow with output")
	}
	if c.selectionCost(100, 2) <= c.selectionCost(100, 0) {
		t.Fatal("selectionCost should grow with uncached sides")
	}
	if c.hpsjCost(50, 1000) <= c.hpsjCost(1, 10) {
		t.Fatal("hpsjCost should grow with centers and output")
	}
}

func BenchmarkOptimizeDP(b *testing.B) {
	g := randomGraph(9, 500, 1200, 5)
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	bind, err := Bind(db, pattern.MustParse("A->C; B->C; C->D; D->E"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeDP(bind, DefaultCostParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeDPS(b *testing.B) {
	g := randomGraph(10, 500, 1200, 5)
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	bind, err := Bind(db, pattern.MustParse("A->C; B->C; C->D; D->E"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeDPS(bind, DefaultCostParams()); err != nil {
			b.Fatal(err)
		}
	}
}
