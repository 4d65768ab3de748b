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
// edge, so W(X, Z) and W(Z, X) are empty for every X, and any pattern
// touching Z has no matches.
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

// fastpathBattery spans the plan shapes on the random graphs: single
// edges, stars, paths, cycles, cliques, and patterns with an empty-W edge.
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

// TestSkewDifferential runs the served read_skew battery — the cyclic
// patterns S1–S7 on a power-law DAG, where a fused Selection's two
// operands differ in length by up to two orders of magnitude — in default
// and reference mode under DP and DPS: same rows, same order, same
// accounting (runBoth). The default runs must reach the fused operator
// and build bitmaps. The DAG has 5k nodes: at the served 20k the
// reference run of S1's DP plan alone takes 46 s; TestServedAnswers pins
// the 20k answers.
func TestSkewDifferential(t *testing.T) {
	db, err := gdb.Build(workload.PowerLawDAG(1, 5000), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	snap, release := db.Pin()
	defer release()
	var rows int
	var fused int64
	for _, w := range workload.Skew() {
		for _, algo := range allPlanners {
			def, ref := planPair(t, snap, w.Pattern, algo)
			rt := new(rjoin.Runtime)
			if _, err := exec.RunSnapConfig(context.Background(), snap, def, exec.RunConfig{Runtime: rt}); err != nil {
				t.Fatal(err)
			}
			fused += rt.Stats().FusedFilters
			rows += runBoth(t, snap, def, ref, caps{}, w.Name+" "+algo.String()).Len()
		}
	}
	if _, _, bitmaps, _ := db.DecodedMemoStats(); rows == 0 || fused == 0 || bitmaps == 0 {
		t.Fatalf("the battery returned %d rows, fused %d filters and built %d bitmaps; want all > 0", rows, fused, bitmaps)
	}
}

// planPair builds p's default plan and its reference twin. The two must be
// the same plan: NoFastPath selects how a plan is executed, never which
// plan is chosen.
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
	if !reflect.DeepEqual(def.Steps, ref.Steps) {
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

// emptyWRun is what one planner's run of an empty-W pattern returned.
type emptyWRun struct {
	rows            [][]graph.NodeID
	bytes, peakRows int64
}

// TestFastPathDifferential is the result-identity proof: for every battery
// pattern and every planner, default execution returns exactly the
// reference mode's rows in exactly its order, charges the same bytes, and
// notes the same peak. The batteries must hold a pattern with an edge whose
// W row is empty: it runs the pipeline like any other, and DP and DPS must
// answer it with the same rows, order and budget counters. The final
// projection is checked on its own too: on every result, the default
// plan's Result written out in a column order that is not the identity
// equals the reference plan's hash-dedup Project into that order, rows and
// order.
//
// The batteries must reach the fused operator — a Fetch running the
// Selections and R-semijoin groups on the node it binds as intersections of
// its partner lists (rjoin.FetchFiltered) — under the served planner, and a
// reference plan must never take it: it is the step-by-step pipeline the
// fused one is held against.
func TestFastPathDifferential(t *testing.T) {
	emptyW := 0
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
			var perPlanner []emptyWRun
			for _, algo := range allPlanners {
				def, ref := planPair(t, snap, p, algo)
				what := dc.name + " " + p.String() + " " + algo.String()
				got := runBoth(t, snap, def, ref, caps{}, what)
				totalRows += got.Len()
				if slices.Contains(def.Binding.WCount, 0) {
					bdg := new(rjoin.Budget)
					if _, err := exec.RunSnapConfig(ctx, snap, def, exec.RunConfig{Budget: bdg}); err != nil {
						t.Fatal(err)
					}
					perPlanner = append(perPlanner, emptyWRun{got.Rows, bdg.Bytes(), bdg.PeakRows()})
				}

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
			if len(perPlanner) > 0 {
				emptyW++
				for _, r := range perPlanner[1:] {
					if !reflect.DeepEqual(r, perPlanner[0]) {
						t.Fatalf("%s %v: an empty-W pattern answers %+v under DP and %+v under DPS", dc.name, p, perPlanner[0], r)
					}
				}
			}
		}
		if totalRows == 0 {
			t.Fatalf("%s: whole battery empty — graph too sparse to prove anything", dc.name)
		}
	}
	if emptyW == 0 {
		t.Fatal("no battery pattern has an edge whose W row is empty")
	}
	if factorised == 0 {
		t.Fatal("no plan ended on a Fetch: the factorised result was never exercised")
	}
	if fused[exec.DPS] == 0 || fused[exec.DP] == 0 {
		t.Fatalf("fused filters per planner %v: the batteries never reached the fused operator", fused)
	}
}

// TestFactorisedLimits: a limit on a plan whose factorised tail keeps its
// lists cuts inside one prefix row's product — a shared list after a plain
// Fetch, an intersected one the result owns after a Fetch that absorbed the
// filters following it. For every such plan of the batteries, with the
// limit at 1, inside an inner list, exactly on an inner list's end, on an
// outer list's boundary and on a prefix row's (tails of two or more
// Fetches), at N and at N+1, the rows are the unlimited run's prefix, and
// Truncated, Bytes() and PeakRows() are the reference plan's (runBoth),
// whose Fetches ran unlimited and whose last filter took the limit.
func TestFactorisedLimits(t *testing.T) {
	ctx := context.Background()
	fusedInside, fusedOnBoundary, outer, prefix := 0, 0, 0, 0
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
				cuts := productCuts(res)
				limits := []int{1, res.N, res.N + 1}
				if cuts.inside > 0 {
					limits = append(limits, cuts.inside)
					inside++
					if fused {
						fusedInside++
					}
				}
				if cuts.inner > 0 {
					limits = append(limits, cuts.inner)
					onBoundary++
					if fused {
						fusedOnBoundary++
					}
				}
				if cuts.outer > 0 {
					limits = append(limits, cuts.outer)
					outer++
				}
				if cuts.prefix > 0 {
					limits = append(limits, cuts.prefix)
					prefix++
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
	if outer == 0 || prefix == 0 {
		t.Fatalf("tails of two or more Fetches: %d limits on an outer list's boundary and %d on a prefix row's — batteries too small", outer, prefix)
	}
}

// limitCuts are row counts at which a limit cuts a factorised result in
// a telling place, each 0 where the result has none.
type limitCuts struct {
	inside int // one row into an inner list of two or more rows
	inner  int // on the end of an inner list, with rows after it
	outer  int // on the end of an outer list's entry, the outer list going on (K ≥ 2)
	prefix int // on the end of a prefix row's product, with rows after it (K ≥ 2)
}

// productCuts finds res's limitCuts in its first prefix rows whose
// products stand for rows.
func productCuts(res *rjoin.Result) limitCuts {
	var c limitCuts
	for i, n := 0, 0; i < len(res.Exp)/res.K; i++ {
		lists := res.Exp[i*res.K : (i+1)*res.K]
		rows := 1
		for _, l := range lists {
			rows *= len(l)
		}
		if rows == 0 {
			continue
		}
		inner := len(lists[res.K-1])
		if c.inside == 0 && inner >= 2 {
			c.inside = n + 1
		}
		if c.inner == 0 && n+inner < res.N {
			c.inner = n + inner
		}
		if res.K >= 2 && c.outer == 0 && rows > inner {
			c.outer = n + inner
		}
		if n += rows; res.K >= 2 && c.prefix == 0 && n < res.N {
			c.prefix = n
		}
	}
	return c
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
