package igmj

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// randomGraph builds a random digraph (cycles allowed — IGMJ handles them
// via condensation).
func randomGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < nlabels; i++ {
		b.Intern(string(rune('A' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func TestReachesMatchesBFS(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 35, 70, 3)
		ix, err := BuildIndex(g, 0)
		if err != nil {
			return false
		}
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if ix.Reaches(u, v) != graph.Reaches(g, u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalsDisjointSorted(t *testing.T) {
	g := randomGraph(1, 80, 160, 4)
	ix, err := BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		ivals := ix.Intervals(v)
		for i, iv := range ivals {
			if iv.S > iv.E {
				t.Fatalf("node %d interval %d inverted: %+v", v, i, iv)
			}
			if i > 0 && ivals[i-1].E+1 >= iv.S {
				t.Fatalf("node %d intervals overlap or touch: %v", v, ivals)
			}
		}
	}
}

func TestMergeIntervals(t *testing.T) {
	// Overlapping and adjacent ranges coalesce; gaps are kept.
	in := []Interval{{5, 7}, {1, 2}, {3, 4}, {20, 22}, {6, 9}, {12, 12}}
	got := mergeIntervals(in)
	want := []Interval{{1, 9}, {12, 12}, {20, 22}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeIntervals = %v, want %v", got, want)
	}
	if out := mergeIntervals(nil); len(out) != 0 {
		t.Fatal("empty merge should be empty")
	}
}

// TestJoinMatchesTruth: the IGMJ base-table join equals BFS ground truth.
func TestJoinMatchesTruth(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed^0xBEE, 35, 70, 3)
		ix, err := BuildIndex(g, 0)
		if err != nil {
			return false
		}
		for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
			for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
				if x == y {
					continue
				}
				got, err := ix.Join(rjoin.Cond{FromNode: 0, ToNode: 1, FromLabel: x, ToLabel: y})
				if err != nil {
					return false
				}
				seen := map[[2]graph.NodeID]bool{}
				for _, r := range got.Rows {
					p := [2]graph.NodeID{r[0], r[1]}
					if seen[p] {
						return false // duplicate pair
					}
					seen[p] = true
				}
				for _, u := range g.Extent(x) {
					for _, v := range g.Extent(y) {
						if seen[[2]graph.NodeID{u, v}] != graph.Reaches(g, u, v) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// buildBoth builds a gdb database (for DP planning) and an IGMJ index over
// the same graph.
func buildBoth(t testing.TB, g *graph.Graph) (*gdb.DB, *Index) {
	t.Helper()
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ix, err := BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db, ix
}

// sparseGraph builds block trees with even→odd cross links (bounded
// reachability) for plan-execution tests.
func sparseGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < nlabels; i++ {
		b.Intern(string(rune('A' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	const block = 40
	nBlocks := (n + block - 1) / block
	for i := 0; i < n; i++ {
		start := (i / block) * block
		if i == start {
			continue
		}
		b.AddEdge(graph.NodeID(start+rng.Intn(i-start)), graph.NodeID(i))
	}
	for i := 0; i < m-n && nBlocks > 1; i++ {
		eb := rng.Intn((nBlocks+1)/2) * 2
		ob := rng.Intn(nBlocks/2)*2 + 1
		u := eb*block + rng.Intn(block)
		v := ob*block + rng.Intn(block)
		if u < n && v < n {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Build()
}

var intdpPatterns = []string{
	"A->B",
	"A->B; B->C",
	"A->C; B->C",
	"A->B; B->C; A->C",
	"A->C; B->C; C->D; D->E",
}

// TestRunMatchesNaive: INT-DP (DP plan + IGMJ operators) equals the naive
// matcher and the DP/R-join engine.
func TestRunMatchesNaive(t *testing.T) {
	g := sparseGraph(7, 200, 260, 5)
	db, ix := buildBoth(t, g)
	snap, release := db.Pin()
	defer release()
	for _, ps := range intdpPatterns {
		p := pattern.MustParse(ps)
		bind, err := optimizer.Bind(snap, p)
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		plan, err := optimizer.OptimizeDP(bind, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		got, err := Run(ix, plan)
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		want, err := exec.NaiveMatch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		got.SortRows()
		want.SortRows()
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: INT-DP %d rows != naive %d rows", ps, got.Len(), want.Len())
		}
	}
}

func TestRunRejectsDPSPlans(t *testing.T) {
	g := sparseGraph(8, 120, 150, 5)
	db, ix := buildBoth(t, g)
	snap, release := db.Pin()
	defer release()
	bind, err := optimizer.Bind(snap, pattern.MustParse("A->C; B->C"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.OptimizeDPS(bind, optimizer.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	hasSemi := false
	for _, s := range plan.Steps {
		if s.Kind == optimizer.StepSemijoinGroup {
			hasSemi = true
		}
	}
	if !hasSemi {
		t.Skip("DPS plan happens to contain no semijoin steps")
	}
	if _, err := Run(ix, plan); err == nil {
		t.Fatal("expected error running DPS plan with IGMJ")
	}
}

func TestIOCounted(t *testing.T) {
	g := sparseGraph(9, 200, 260, 5)
	_, ix := buildBoth(t, g)
	ix.ResetIOStats()
	if _, err := ix.Join(rjoin.Cond{FromNode: 0, ToNode: 1,
		FromLabel: g.Labels().Lookup("A"), ToLabel: g.Labels().Lookup("B")}); err != nil {
		t.Fatal(err)
	}
	if ix.IOStats().Logical() == 0 {
		t.Fatal("IGMJ join should read lists through the pool")
	}
}

func TestStab(t *testing.T) {
	ivals := []Interval{{1, 3}, {6, 8}, {10, 10}}
	cases := map[int32]bool{0: false, 1: true, 3: true, 4: false, 6: true, 8: true, 9: false, 10: true, 11: false}
	for po, want := range cases {
		if stab(ivals, po) != want {
			t.Fatalf("stab(%d) = %v, want %v", po, !want, want)
		}
	}
	if stab(nil, 5) {
		t.Fatal("stab on empty intervals should be false")
	}
}

func BenchmarkIGMJJoin(b *testing.B) {
	g := sparseGraph(10, 3000, 3900, 5)
	ix, err := BuildIndex(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	c := rjoin.Cond{FromNode: 0, ToNode: 1,
		FromLabel: g.Labels().Lookup("A"), ToLabel: g.Labels().Lookup("B")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Join(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJoinTemporalForward: joining a temporal table on the From side (the
// resort-then-merge path) agrees with per-row reachability.
func TestJoinTemporalForward(t *testing.T) {
	g := sparseGraph(11, 200, 260, 5)
	ix, err := BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	al := g.Labels().Lookup("A")
	bl := g.Labels().Lookup("B")
	tbl := rjoin.NewTable(0)
	for i, x := range g.Extent(al) {
		if i%2 == 0 { // a strict subset, so the resort path differs from Join
			tbl.Rows = append(tbl.Rows, []graph.NodeID{x})
		}
	}
	got, err := ix.JoinTemporal(tbl, rjoin.Cond{FromNode: 0, ToNode: 1, FromLabel: al, ToLabel: bl})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]graph.NodeID]bool{}
	for _, r := range got.Rows {
		seen[[2]graph.NodeID{r[0], r[1]}] = true
	}
	for _, row := range tbl.Rows {
		for _, y := range g.Extent(bl) {
			if seen[[2]graph.NodeID{row[0], y}] != graph.Reaches(g, row[0], y) {
				t.Fatalf("forward temporal join wrong for (%d,%d)", row[0], y)
			}
		}
	}
	if ix.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
	// No side bound → error.
	if _, err := ix.JoinTemporal(rjoin.NewTable(7), rjoin.Cond{FromNode: 0, ToNode: 1, FromLabel: al, ToLabel: bl}); err == nil {
		t.Fatal("expected error for unbound condition")
	}
}

// TestJoinTemporalReverse: joining on the To side (postorder resort path).
func TestJoinTemporalReverse(t *testing.T) {
	g := sparseGraph(12, 200, 260, 5)
	ix, err := BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	al := g.Labels().Lookup("A")
	bl := g.Labels().Lookup("B")
	tbl := rjoin.NewTable(1)
	for i, y := range g.Extent(bl) {
		if i%3 == 0 {
			tbl.Rows = append(tbl.Rows, []graph.NodeID{y})
		}
	}
	got, err := ix.JoinTemporal(tbl, rjoin.Cond{FromNode: 0, ToNode: 1, FromLabel: al, ToLabel: bl})
	if err != nil {
		t.Fatal(err)
	}
	// Columns are [to, from] after a reverse join.
	seen := map[[2]graph.NodeID]bool{}
	for _, r := range got.Rows {
		seen[[2]graph.NodeID{r[1], r[0]}] = true
	}
	for _, row := range tbl.Rows {
		for _, x := range g.Extent(al) {
			if seen[[2]graph.NodeID{x, row[0]}] != graph.Reaches(g, x, row[0]) {
				t.Fatalf("reverse temporal join wrong for (%d,%d)", x, row[0])
			}
		}
	}
}
