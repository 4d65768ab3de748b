package fastmatch_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// These tests hold the default executor — decoded per-epoch read path, no
// per-step spill, last expansion left factorised and permuted as it is
// written out — against the counted-I/O reference mode
// (exec.PlanConfig{NoFastPath: true}: pool reads per access, spill, every
// step materialised, hash-dedup projection). The two must be indistinguishable in
// everything a caller can observe: rows, their order, truncation, typed
// budget kills and byte accounting.

// fastpathRandomGraph builds a labeled random digraph (labels A..E,
// possibly cyclic), plus one isolated Z-labeled node: Z participates in no
// edge, so any pattern touching Z is provably empty and must be answered
// by the tier-2 prefilter.
func fastpathRandomGraph(seed int64, n, m, nlabels int) *graph.Graph {
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
	b.AddNode("Z")
	return b.Build()
}

// fastpathBattery spans the plan shapes on the random graphs: index-only
// shapes (single edges, stars), pipelines (paths, cycles, cliques), and
// signature-refuted patterns.
var fastpathBattery = []string{
	"A->B",
	"B->A",
	"A->B; A->C",
	"A->C; B->C",
	"A->B; A->C; A->D",
	"A->B; B->C",
	"A->B; B->C; C->A",
	"A->B; A->C; B->D; C->D",
	"A->Z",
	"Z->A; A->B",
}

var allPlanners = []exec.Algorithm{exec.DP, exec.DPS}

// servedBattery is what the served-path benchmark sends: the paper's path,
// tree and graph patterns plus the cyclic battery, over XMark labels.
func servedBattery() []*pattern.Pattern {
	var ps []*pattern.Pattern
	for _, ws := range [][]workload.Workload{workload.Paths(), workload.Trees(), workload.Graphs4B(), workload.Cyclic()} {
		for _, w := range ws {
			ps = append(ps, w.Pattern)
		}
	}
	return ps
}

// diffCase is one database with the patterns to run on it.
type diffCase struct {
	name     string
	g        *graph.Graph
	patterns []*pattern.Pattern
}

func differentialCases() []diffCase {
	var shapes []*pattern.Pattern
	for _, ps := range fastpathBattery {
		shapes = append(shapes, pattern.MustParse(ps))
	}
	return []diffCase{
		{"random-41", fastpathRandomGraph(41, 100, 130, 5), shapes},
		{"random-42", fastpathRandomGraph(42, 140, 190, 5), shapes},
		{"random-43", fastpathRandomGraph(43, 80, 120, 5), shapes},
		{"xmark", xmark.Generate(xmark.Config{Nodes: 1500, Seed: 5}).Graph, servedBattery()},
	}
}

// planPair builds p's default plan and its reference twin. Apart from the
// prefilter's one-step plan, the two must be the same plan: NoFastPath
// selects how a plan is executed, never which plan is chosen.
func planPair(t testing.TB, snap *gdb.Snap, p *pattern.Pattern, algo exec.Algorithm) (def, ref *optimizer.Plan) {
	t.Helper()
	def, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
	if err != nil {
		t.Fatalf("%v %v: %v", p, algo, err)
	}
	ref, err = exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{NoFastPath: true})
	if err != nil {
		t.Fatalf("%v %v reference: %v", p, algo, err)
	}
	if !ref.Reference || def.Reference {
		t.Fatalf("%v %v: Reference flags %v/%v, want false/true", p, algo, def.Reference, ref.Reference)
	}
	if def.Tier() != 2 && !reflect.DeepEqual(def.Steps, ref.Steps) {
		t.Fatalf("%v %v: default and reference plans differ:\n%v\n%v", p, algo, def, ref)
	}
	return def, ref
}

// caps are a budget's settings (a Budget itself holds counters and must
// not be copied).
type caps struct {
	ResultRows, MaxTableRows int
	MaxBytes                 int64
}

func (c caps) budget() *rjoin.Budget {
	return &rjoin.Budget{ResultRows: c.ResultRows, MaxTableRows: c.MaxTableRows, MaxBytes: c.MaxBytes}
}

// runBoth executes the two plans under equal budgets and asserts every
// observable agrees. It returns the (shared) result, or nil when both runs
// died of the same typed budget kill.
func runBoth(t testing.TB, snap *gdb.Snap, def, ref *optimizer.Plan, c caps, what string) *rjoin.Table {
	t.Helper()
	ctx := context.Background()
	bd, br := c.budget(), c.budget()
	got, gotErr := exec.RunSnapConfig(ctx, snap, def, exec.RunConfig{Budget: bd})
	want, wantErr := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{Budget: br})
	if wantErr != nil || gotErr != nil {
		for _, sentinel := range []error{rjoin.ErrRowLimit, rjoin.ErrBudgetExceeded} {
			if errors.Is(wantErr, sentinel) != errors.Is(gotErr, sentinel) {
				t.Fatalf("%s: default failed with %v, reference with %v", what, gotErr, wantErr)
			}
		}
		if !errors.Is(wantErr, rjoin.ErrRowLimit) && !errors.Is(wantErr, rjoin.ErrBudgetExceeded) {
			t.Fatalf("%s: untyped failure: default %v, reference %v", what, gotErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("%s: cols %v vs reference %v", what, got.Cols, want.Cols)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: default result (%d rows) differs from the reference (%d rows)", what, got.Len(), want.Len())
	}
	if bd.Truncated() != br.Truncated() {
		t.Fatalf("%s: Truncated %v vs reference %v", what, bd.Truncated(), br.Truncated())
	}
	if bd.Bytes() != br.Bytes() || bd.PeakRows() != br.PeakRows() {
		t.Fatalf("%s: accounting bytes=%d peak=%d, reference bytes=%d peak=%d",
			what, bd.Bytes(), bd.PeakRows(), br.Bytes(), br.PeakRows())
	}
	return got
}

// TestFastPathTierClassification pins the tier labels that do not depend
// on cost estimates: a single-edge pattern always labels tier 1, a pattern
// with a signature-refuted edge always short-circuits to tier 2, a cyclic
// pattern — whose plans need a Selection — is always tier 3, and a
// reference plan is never classified.
func TestFastPathTierClassification(t *testing.T) {
	g := fastpathRandomGraph(41, 100, 130, 5)
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, release := db.Pin()
	defer release()

	cases := []struct {
		text string
		tier int
	}{
		{"A->B", 1},
		{"B->A", 1},
		{"A->Z", 2},
		{"Z->A; A->B", 2},
		{"A->B; B->C; C->A", 3},
	}
	for _, algo := range allPlanners {
		for _, c := range cases {
			def, ref := planPair(t, snap, pattern.MustParse(c.text), algo)
			if def.Tier() != c.tier {
				t.Errorf("%v %q: tier %d, want %d", algo, c.text, def.Tier(), c.tier)
			}
			if ref.Tier() != 3 {
				t.Errorf("%v %q: reference plan labelled tier %d", algo, c.text, ref.Tier())
			}
		}
	}
}

// TestFastPathDifferential is the result-identity proof: for every battery
// pattern and every planner, default execution returns exactly the
// reference mode's rows in exactly its order, charges the same bytes, and
// notes the same peak. The final projection is checked on its own too: on
// every result, the default plan's Result written out in a column order
// that is not the identity equals the reference plan's hash-dedup Project
// into that order, rows and order.
//
// The batteries must reach the fused operator — a Fetch running the
// Selections and R-semijoin groups on the node it binds as intersections of
// its partner lists (rjoin.FetchFiltered) — under the served planner, and a
// reference plan must never take it: it is the step-by-step pipeline the
// fused one is held against.
func TestFastPathDifferential(t *testing.T) {
	tiers := map[int]bool{}
	factorised := 0
	fused := map[exec.Algorithm]int64{}
	ctx := context.Background()
	for _, dc := range differentialCases() {
		db, err := gdb.Build(dc.g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snap, release := db.Pin()
		defer release()

		totalRows := 0
		for _, p := range dc.patterns {
			for _, algo := range allPlanners {
				def, ref := planPair(t, snap, p, algo)
				tiers[def.Tier()] = true
				what := dc.name + " " + p.String() + " " + algo.String()
				got := runBoth(t, snap, def, ref, caps{}, what)
				totalRows += got.Len()

				rev := slices.Clone(got.Cols)
				slices.Reverse(rev)
				rtRef, rtDef := new(rjoin.Runtime), new(rjoin.Runtime)
				want, err := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{Runtime: rtRef})
				if err != nil {
					t.Fatal(err)
				}
				proj, err := want.Result().Project(rev)
				if err != nil {
					t.Fatal(err)
				}
				projected, err := proj.Table(rev)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := exec.Run(ctx, snap, def, false, exec.RunConfig{Runtime: rtDef})
				if err != nil {
					t.Fatal(err)
				}
				if res.Exp != nil {
					factorised++
				}
				if n := rtRef.Stats().FusedFilters; n != 0 {
					t.Fatalf("%s: the reference plan fused %d steps", what, n)
				}
				fused[algo] += rtDef.Stats().FusedFilters
				written, err := res.Table(rev)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(projected.Rows, written.Rows) && (projected.Len() != 0 || written.Len() != 0) {
					t.Fatalf("%s: the reference's Project (%d rows) and Result.Table (%d rows) disagree on the final table",
						what, projected.Len(), written.Len())
				}
			}
		}
		if totalRows == 0 {
			t.Fatalf("%s: whole battery empty — graph too sparse to prove anything", dc.name)
		}
	}
	if !tiers[1] || !tiers[2] || !tiers[3] {
		t.Fatalf("batteries covered tiers %v, want all three plan shapes", tiers)
	}
	if factorised == 0 {
		t.Fatal("no plan ended on a Fetch: the factorised result was never exercised")
	}
	if fused[exec.DPS] == 0 || fused[exec.DP] == 0 {
		t.Fatalf("fused filters per planner %v: the batteries never reached the fused operator", fused)
	}
}

// TestFactorisedLimits: a limit on a plan whose last expansion stays
// factorised cuts inside one partner list — a shared one after a plain
// Fetch, an intersected one the result owns after a Fetch that absorbed the
// filters following it. For every such plan of the batteries, with the
// limit at 1, inside a list, exactly on a list boundary, at N and at N+1,
// the rows are the unlimited run's prefix, and
// Truncated, Bytes() and PeakRows() are the reference plan's (runBoth),
// whose Fetch ran unlimited and whose last filter took the limit.
func TestFactorisedLimits(t *testing.T) {
	ctx := context.Background()
	fusedInside, fusedOnBoundary := 0, 0
	for _, dc := range differentialCases()[2:] { // one random graph, and xmark
		db, err := gdb.Build(dc.g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snap, release := db.Pin()
		defer release()

		inside, onBoundary := 0, 0
		for _, p := range dc.patterns {
			for _, algo := range allPlanners {
				def, ref := planPair(t, snap, p, algo)
				res, traces, err := exec.Run(ctx, snap, def, true, exec.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Exp == nil || res.N == 0 {
					continue
				}
				// The plan's last step ran inside the Fetch before it: the
				// lists are intersections the result owns.
				fused := traces[len(traces)-1].Fused
				full, err := exec.RunSnapConfig(ctx, snap, def, exec.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				// A limit inside the first list of two or more rows, and one
				// exactly on the end of the first list with rows after it.
				in, on := 0, 0
				for i, n := 0, 0; i < len(res.Exp); i++ {
					l := len(res.Exp[i])
					if in == 0 && l >= 2 {
						in = n + 1
					}
					if n += l; on == 0 && l > 0 && n < res.N {
						on = n
					}
				}
				limits := []int{1, res.N, res.N + 1}
				if in > 0 {
					limits = append(limits, in)
					inside++
					if fused {
						fusedInside++
					}
				}
				if on > 0 {
					limits = append(limits, on)
					onBoundary++
					if fused {
						fusedOnBoundary++
					}
				}
				for _, limit := range limits {
					what := fmt.Sprintf("%s %v %v limit=%d of %d", dc.name, p, algo, limit, res.N)
					got := runBoth(t, snap, def, ref, caps{ResultRows: limit}, what)
					if want := full.Rows[:min(limit, res.N)]; !reflect.DeepEqual(got.Rows, want) {
						t.Fatalf("%s: %d rows are not the unlimited result's prefix", what, got.Len())
					}
				}
			}
		}
		if inside == 0 || onBoundary == 0 {
			t.Fatalf("%s: %d limits inside a list and %d on a boundary — battery too small", dc.name, inside, onBoundary)
		}
	}
	if fusedInside == 0 || fusedOnBoundary == 0 {
		t.Fatalf("plans ending on a fused group: %d limits inside an intersected list and %d on a boundary — batteries too small", fusedInside, fusedOnBoundary)
	}
}

// TestFastPathBudgetIdentity: limits and budgets behave identically in both
// modes — same truncation prefix and Truncated flag,
// same bytes charged, and the same typed kill whenever a cap is below what
// the query needs (and none when the cap is exactly what it needs).
func TestFastPathBudgetIdentity(t *testing.T) {
	for _, dc := range differentialCases()[1:] { // one random graph, and xmark
		if dc.name == "random-43" {
			continue
		}
		db, err := gdb.Build(dc.g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snap, release := db.Pin()
		defer release()

		truncations, kills := 0, 0
		for _, p := range dc.patterns {
			for _, algo := range allPlanners {
				def, ref := planPair(t, snap, p, algo)
				what := dc.name + " " + p.String() + " " + algo.String()
				free := &rjoin.Budget{}
				full, err := exec.RunSnapConfig(context.Background(), snap, ref, exec.RunConfig{Budget: free})
				if err != nil {
					t.Fatal(err)
				}
				n := full.Len()
				for _, limit := range []int{1, n / 2, n, n + 10} {
					if limit <= 0 {
						continue
					}
					got := runBoth(t, snap, def, ref, caps{ResultRows: limit}, what+" limit")
					if want := full.Rows[:min(limit, n)]; !reflect.DeepEqual(got.Rows, want) && (len(got.Rows) != 0 || len(want) != 0) {
						t.Fatalf("%s limit=%d: %d rows are not the unlimited result's prefix", what, limit, got.Len())
					}
					if limit < n {
						truncations++
					}
				}
				if peak := int(free.PeakRows()); peak >= 2 {
					if runBoth(t, snap, def, ref, caps{MaxTableRows: peak / 2}, what+" row cap") != nil {
						t.Fatalf("%s: survived a row cap of %d with a %d-row table", what, peak/2, peak)
					}
					kills++
					// At exactly the peak an HPSJ may still die on its
					// pre-dedup pair count; both modes must agree either way.
					runBoth(t, snap, def, ref, caps{MaxTableRows: peak}, what+" exact row cap")
				}
				if bytes := free.Bytes(); bytes >= 2 {
					if runBoth(t, snap, def, ref, caps{MaxBytes: bytes / 2}, what+" byte cap") != nil {
						t.Fatalf("%s: survived a byte cap of %d having charged %d", what, bytes/2, bytes)
					}
					kills++
					if runBoth(t, snap, def, ref, caps{MaxBytes: bytes}, what+" exact byte cap") == nil {
						t.Fatalf("%s: killed at a byte cap equal to its charge %d", what, bytes)
					}
				}
			}
		}
		if truncations == 0 || kills == 0 {
			t.Fatalf("%s: %d truncations and %d kills exercised — battery too small", dc.name, truncations, kills)
		}
	}
}

// TestFastPathColdSnapshotConcurrentReaders: many queries start at once on
// a snapshot whose decoded memos are empty, so every query races to fill
// the same maps. Each must still return the reference
// result (computed first; reference mode never touches the memos). Run
// under -race.
func TestFastPathColdSnapshotConcurrentReaders(t *testing.T) {
	dc := differentialCases()[3]
	db, err := gdb.Build(dc.g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, release := db.Pin()
	defer release()
	ctx := context.Background()

	type job struct {
		plan *optimizer.Plan
		want [][]graph.NodeID
	}
	var jobs []job
	for _, p := range dc.patterns {
		def, ref := planPair(t, snap, p, exec.DPS)
		want, err := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{def, want.Rows})
	}
	if snap.DecodedMemoNodes() != 0 {
		t.Fatalf("reference runs filled the decoded memos (%d nodes)", snap.DecodedMemoNodes())
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := exec.RunSnapConfig(ctx, snap, j.plan, exec.RunConfig{})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(got.Rows, j.want) && (got.Len() != 0 || len(j.want) != 0) {
				t.Errorf("job %d: %d rows racing a cold memo, reference has %d", i, got.Len(), len(j.want))
			}
		}()
	}
	wg.Wait()
	if snap.DecodedMemoNodes() == 0 {
		t.Fatal("default runs left the decoded memos empty")
	}
}

// FuzzFastPathDifferential lets the fuzzer choose the graph and the pattern:
// whatever the topology, default execution must match the reference mode
// row for row, in order, for every planner.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(120))
	f.Add(int64(7), uint8(3), uint8(200))
	f.Add(int64(42), uint8(8), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, density uint8) {
		p := pattern.MustParse(fastpathBattery[int(pick)%len(fastpathBattery)])
		n := 60
		m := 20 + int(density)%121 // 20..140 edges
		g := fastpathRandomGraph(seed, n, m, 5)
		db, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snap, release := db.Pin()
		defer release()
		for _, algo := range allPlanners {
			def, ref := planPair(t, snap, p, algo)
			runBoth(t, snap, def, ref, caps{}, p.String()+" "+algo.String())
		}
	})
}
