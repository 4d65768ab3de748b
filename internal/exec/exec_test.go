package exec

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// randomGraph builds a forest of random trees (blocks of ~40 nodes) with
// cross links only from even blocks into odd blocks, plus occasional
// intra-block back edges for cycles. Reachability sets stay bounded by a
// few blocks, like real XMark-shaped data (shallow documents stitched by
// ID/IDREF links), so pattern results cannot explode.
func randomGraph(seed int64, n, m, nlabels int) *graph.Graph {
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
	// Tree edges within each block.
	for i := 0; i < n; i++ {
		start := (i / block) * block
		if i == start {
			continue // block root
		}
		parent := start + rng.Intn(i-start)
		b.AddEdge(graph.NodeID(parent), graph.NodeID(i))
		if rng.Intn(25) == 0 { // occasional back edge → cycle
			b.AddEdge(graph.NodeID(i), graph.NodeID(parent))
		}
	}
	// Cross links even → odd block only (keeps reach sets bounded).
	cross := m - n
	if cross < nBlocks {
		cross = nBlocks
	}
	for i := 0; i < cross && nBlocks > 1; i++ {
		eb := rng.Intn((nBlocks+1)/2) * 2
		ob := rng.Intn(nBlocks/2)*2 + 1
		u := eb*block + rng.Intn(min(block, n-eb*block))
		v := ob*block + rng.Intn(min(block, n-ob*block))
		if u < n && v < n {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Build()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func mustDB(t testing.TB, g *graph.Graph) *gdb.DB {
	t.Helper()
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// mustSnap builds a database over g and pins its snapshot for the test.
func mustSnap(t testing.TB, g *graph.Graph) *gdb.Snap {
	t.Helper()
	snap, release := mustDB(t, g).Pin()
	t.Cleanup(release)
	return snap
}

func sortedRows(t *rjoin.Table) [][]graph.NodeID {
	t.SortRows()
	return t.Rows
}

var execPatterns = []string{
	"A->B",
	"A->B; B->C",
	"A->C; B->C",
	"A->B; A->C",
	"A->C; B->C; C->D; D->E",
	"A->B; B->C; A->C",
	"A->B; B->C; C->D; A->D",
	"A->C; B->C; C->D; C->E",
}

// TestDPAndDPSMatchNaive is the end-to-end correctness property: for random
// graphs and a battery of pattern shapes (paths, trees, DAG patterns with
// cycles of conditions), DP plans, DPS plans, and the naive matcher must
// produce identical result sets.
func TestDPAndDPSMatchNaive(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 160, 220, 5)
		db, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		for _, ps := range execPatterns {
			p := pattern.MustParse(ps)
			want, err := NaiveMatch(g, p)
			if err != nil {
				return false
			}
			dpRes, err := Query(db, p, DP)
			if err != nil {
				t.Logf("seed %d pattern %s: DP error: %v", seed, ps, err)
				return false
			}
			dpsRes, err := Query(db, p, DPS)
			if err != nil {
				t.Logf("seed %d pattern %s: DPS error: %v", seed, ps, err)
				return false
			}
			w := sortedRows(want)
			if !reflect.DeepEqual(sortedRows(dpRes), w) {
				t.Logf("seed %d pattern %s: DP rows %d != naive %d", seed, ps, dpRes.Len(), want.Len())
				return false
			}
			if !reflect.DeepEqual(sortedRows(dpsRes), w) {
				t.Logf("seed %d pattern %s: DPS rows %d != naive %d", seed, ps, dpsRes.Len(), want.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryWithPlanReturnsPlan(t *testing.T) {
	g := randomGraph(3, 80, 200, 5)
	snap := mustSnap(t, g)
	p := pattern.MustParse("A->C; B->C; C->D")
	plan, err := BuildPlanSnapConfig(snap, p, DPS, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSnapConfig(context.Background(), snap, plan, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Algorithm != "DPS" {
		t.Fatalf("plan = %v", plan)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	if len(res.Cols) != 4 {
		t.Fatalf("result cols = %v, want 4 pattern nodes", res.Cols)
	}
	// Columns must be in pattern-node order.
	for i, c := range res.Cols {
		if c != i {
			t.Fatalf("result cols %v not in pattern order", res.Cols)
		}
	}
}

// TestResultRowsSatisfyConditions verifies every returned row satisfies all
// reachability conditions (soundness independent of the naive matcher).
func TestResultRowsSatisfyConditions(t *testing.T) {
	g := randomGraph(4, 60, 140, 5)
	db := mustDB(t, g)
	p := pattern.MustParse("A->B; B->C; A->C")
	res, err := Query(db, p, DPS)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, e := range p.Edges {
			if !graph.Reaches(g, row[e.From], row[e.To]) {
				t.Fatalf("row %v violates %s->%s", row, p.Nodes[e.From], p.Nodes[e.To])
			}
		}
		for i, v := range row {
			if g.LabelNameOf(v) != p.Nodes[i] {
				t.Fatalf("row %v column %d has wrong label", row, i)
			}
		}
	}
}

func TestNaiveMatchLabelsMissing(t *testing.T) {
	g := randomGraph(5, 20, 40, 2)
	if _, err := NaiveMatch(g, pattern.MustParse("A->Z")); err == nil {
		t.Fatal("expected error for unknown label")
	}
}

func TestRunRejectsBadPlans(t *testing.T) {
	g := randomGraph(6, 40, 80, 5)
	snap := mustSnap(t, g)
	b, err := optimizer.Bind(snap, pattern.MustParse("A->B; B->C"))
	if err != nil {
		t.Fatal(err)
	}
	bad := &optimizer.Plan{
		Binding: b,
		Steps:   []optimizer.Step{{Kind: optimizer.StepFetch, Edges: []int{0}}},
	}
	if _, err := RunSnapConfig(context.Background(), snap, bad, RunConfig{}); err == nil {
		t.Fatal("expected error running fetch without a table")
	}
	empty := &optimizer.Plan{Binding: b}
	if _, err := RunSnapConfig(context.Background(), snap, empty, RunConfig{}); err == nil {
		t.Fatal("expected error for empty plan")
	}
}

// TestDPSLowerIO: on a star pattern over a mid-sized graph, the DPS plan
// should incur no more I/O than the DP plan (the paper's Section 6.2
// finding, in weak form). I/O is the paper's metric, so the plans run in
// the counted-I/O reference mode.
func TestDPSLowerIO(t *testing.T) {
	g := randomGraph(7, 2000, 5000, 5)
	db := mustDB(t, g)
	p := pattern.MustParse("A->C; B->C; C->D; C->E")
	snap, release := db.Pin()
	defer release()

	run := func(algo Algorithm) int64 {
		db.ClearCaches()
		db.ResetIOStats()
		plan, err := BuildPlanSnapConfig(snap, p, algo, PlanConfig{NoFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunSnapConfig(context.Background(), snap, plan, RunConfig{}); err != nil {
			t.Fatal(err)
		}
		return db.IOStats().Logical()
	}
	dpIO := run(DP)
	dpsIO := run(DPS)
	if dpsIO > dpIO {
		t.Fatalf("DPS I/O %d exceeds DP I/O %d", dpsIO, dpIO)
	}
}

func TestAlgorithmString(t *testing.T) {
	if DP.String() != "DP" || DPS.String() != "DPS" {
		t.Fatal("Algorithm String wrong")
	}
	for _, s := range []string{"dp", "DP", "dps", "DPS", ""} {
		if a, err := ParseAlgorithm(s); err != nil || (a == DP) != (s == "dp" || s == "DP") {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, a, err)
		}
	}
	for _, s := range []string{"wcoj", "WCOJ", "dps-merged"} {
		if _, err := ParseAlgorithm(s); err == nil {
			t.Fatalf("ParseAlgorithm(%q) accepted a retired planner", s)
		}
	}
}

func BenchmarkQueryDP(b *testing.B) {
	g := randomGraph(8, 3000, 7000, 5)
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	p := pattern.MustParse("A->C; B->C; C->D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db, p, DP); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryDPS(b *testing.B) {
	g := randomGraph(8, 3000, 7000, 5)
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	p := pattern.MustParse("A->C; B->C; C->D")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db, p, DPS); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelQueryAfterPoolShrink: a database built under a large pool
// and then shrunk to the paper's buffer-to-data ratio (what the experiment
// runner does) must still answer parallel queries. The pool used to keep
// its construction-time 16 shards, so 64 KB left one frame per shard and
// two readers meeting in a shard failed the query with "buffer pool
// exhausted" on every multi-core run. Reference mode is what reads the
// pool per access; each plan runs as two concurrent queries.
func TestParallelQueryAfterPoolShrink(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := xmark.Generate(xmark.Config{Nodes: 8000, Seed: 3})
	db, err := gdb.Build(d.Graph, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ResizePool(64 << 10); err != nil {
		t.Fatal(err)
	}
	snap, release := db.Pin()
	defer release()
	ctx := context.Background()
	for _, w := range append(workload.Graphs4A(), workload.Paths()...) {
		for _, algo := range []Algorithm{DP, DPS} {
			plan, err := BuildPlanSnapConfig(snap, w.Pattern, algo, PlanConfig{NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			db.ClearCaches()
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = RunSnapConfig(ctx, snap, plan, RunConfig{})
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("%s %v: %v", w.Name, algo, err)
			}
		}
	}
}

// TestFusedStepTrace: a Fetch that absorbs the filters following it still
// reports one trace entry per plan step, with the row counts the
// step-by-step reference run reports — the Fetch its logical output, each
// absorbed step what it left — the absorbed entries marked Fused with no
// time or I/O of their own, and a pushed-down limit showing on the last
// entry only. Reference plans never fuse.
func TestFusedStepTrace(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 1500, Seed: 5}).Graph
	snap := mustSnap(t, g)
	ctx := context.Background()
	fusedSteps := 0
	for _, w := range append(workload.Graphs4B(), workload.Cyclic()...) {
		for _, algo := range []Algorithm{DP, DPS} {
			def, err := BuildPlanSnapConfig(snap, w.Pattern, algo, PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := BuildPlanSnapConfig(snap, w.Pattern, algo, PlanConfig{NoFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{0, 3} {
				_, got, err := Run(ctx, snap, def, true, RunConfig{Budget: &rjoin.Budget{ResultRows: limit}})
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := Run(ctx, snap, ref, true, RunConfig{Budget: &rjoin.Budget{ResultRows: limit}})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(def.Steps) || len(want) != len(got) {
					t.Fatalf("%v %v: %d / %d trace entries for %d steps", w.Pattern, algo, len(got), len(want), len(def.Steps))
				}
				for i := range got {
					if want[i].Fused {
						t.Fatalf("%v %v: reference step %d is marked fused", w.Pattern, algo, i+1)
					}
					if !reflect.DeepEqual(got[i].Step, def.Steps[i]) {
						t.Fatalf("%v %v: entry %d traces %v, step is %v", w.Pattern, algo, i+1, got[i].Step, def.Steps[i])
					}
					// Under a limit only the last step is cut; an absorbed
					// step before it may have stopped early.
					if got[i].Rows != want[i].Rows && (limit == 0 || i == len(got)-1 || !got[i].Fused) {
						t.Fatalf("%v %v limit=%d: step %d (%v) left %d rows, reference %d",
							w.Pattern, algo, limit, i+1, got[i].Step.Kind, got[i].Rows, want[i].Rows)
					}
					if !got[i].Fused {
						continue
					}
					fusedSteps++
					if k := got[i].Step.Kind; k != optimizer.StepSelection && k != optimizer.StepSemijoinGroup {
						t.Fatalf("%v %v: a %v step was absorbed", w.Pattern, algo, k)
					}
					if got[i].ElapsedMS != 0 || got[i].IO != 0 || got[i].CenterCacheHits != 0 {
						t.Fatalf("%v %v: fused step %d carries its own time or I/O: %+v", w.Pattern, algo, i+1, got[i])
					}
				}
			}
		}
	}
	if fusedSteps == 0 {
		t.Fatal("no plan of the graph and cyclic batteries absorbed a step")
	}
}
