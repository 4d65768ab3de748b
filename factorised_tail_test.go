package fastmatch_test

import (
	"context"
	"fmt"
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

// tailCase is one database and the patterns whose plans end in a
// factorised tail of two or more Fetches there; must names the shapes that
// have to reach such a tail under at least one planner.
type tailCase struct {
	name     string
	g        *graph.Graph
	patterns []string
	must     []string
}

func tailCases() []tailCase {
	f7 := "site->name; site->description"
	t6 := workloadPattern(workload.Trees(), "T6")
	t9 := workloadPattern(workload.Trees(), "T9")
	s6 := workloadPattern(workload.Skew(), "S6-path")
	return []tailCase{
		{"random-41", fastpathRandomGraph(41, 100, 130, 5),
			[]string{"A->B; A->C", "A->B; A->C; A->D", "B->A; B->C; B->D", "A->B; B->C", "A->B; A->C; B->D; C->D"}, nil},
		{"random-42", fastpathRandomGraph(42, 140, 190, 5),
			[]string{"A->B; A->C", "C->A; C->B; C->D"}, nil},
		{"xmark", xmark.Generate(xmark.Config{Nodes: 1500, Seed: 5}).Graph,
			[]string{f7, t6, t9, workloadPattern(workload.Paths(), "P2"), workloadPattern(workload.Trees(), "T4")},
			[]string{f7, t6, t9}},
		{"skew", workload.PowerLawDAG(1, 1200), []string{s6}, []string{s6}},
	}
}

// workloadPattern returns the pattern text of the named workload.
func workloadPattern(ws []workload.Workload, name string) string {
	for _, w := range ws {
		if w.Name == name {
			return w.Pattern.String()
		}
	}
	panic("no workload " + name)
}

// TestFactorisedTail holds plans whose last two or three Fetches run as a
// factorised tail — each adding one expanded column of partner lists per
// prefix row instead of writing its product out — against their reference
// twins, which write every step out: on XMark (the read_fastpath F7 shape,
// T6's 1:1 expansions, T9) and the power-law DAG (read_skew's S6) as well
// as random graphs, under DP and DPS. Rows and their order, Truncated,
// Bytes(), PeakRows() and every step's traced row count are the
// reference's; so is the typed kill at every MaxTableRows (see rowCaps)
// and across a MaxBytes sweep. Tails of K = 2 and K = 3 must both be
// reached. Only DPS plans such tails here: a DP plan's Fetches after its
// HPSJ are JoinFilterFetches, and one only opens a tail.
func TestFactorisedTail(t *testing.T) {
	ctx := context.Background()
	byK := map[int]int{}
	for _, tc := range tailCases() {
		db, err := gdb.Build(tc.g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		snap, release := db.Pin()
		defer release()
		reached := map[string]bool{}
		for _, ps := range tc.patterns {
			p := pattern.MustParse(ps)
			for _, algo := range allPlanners {
				def, ref := planPair(t, snap, p, algo)
				what := fmt.Sprintf("%s %v %v", tc.name, p, algo)
				res, traces, err := exec.Run(ctx, snap, def, true, exec.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				k := 0
				for _, tr := range traces {
					if tr.Factorised {
						k++
					}
				}
				if k != res.K() || k < 2 {
					if k != res.K() && res.N > 0 {
						t.Fatalf("%s: %d factorised steps but %d expanded columns", what, k, res.K())
					}
					continue
				}
				byK[k]++
				reached[ps] = true
				_, refTraces, err := exec.Run(ctx, snap, ref, true, exec.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				if len(traces) != len(refTraces) {
					t.Fatalf("%s: %d traced steps, reference %d", what, len(traces), len(refTraces))
				}
				for i := range traces {
					if traces[i].Rows != refTraces[i].Rows || refTraces[i].Factorised {
						t.Fatalf("%s: step %d left %d rows (factorised=%v), reference %d (factorised=%v)",
							what, i+1, traces[i].Rows, traces[i].Factorised, refTraces[i].Rows, refTraces[i].Factorised)
					}
				}
				free := &rjoin.Budget{}
				if _, err := exec.RunSnapConfig(ctx, snap, ref, exec.RunConfig{Budget: free}); err != nil {
					t.Fatal(err)
				}
				runBoth(t, snap, def, ref, caps{}, what)
				peak, bytes := int(free.PeakRows()), free.Bytes()
				for _, rows := range rowCaps(peak) {
					got := runBoth(t, snap, def, ref, caps{MaxTableRows: rows}, fmt.Sprintf("%s row cap %d", what, rows))
					if (got == nil) != (rows < peak) && rows != peak {
						t.Fatalf("%s: row cap %d of a %d-row peak: killed=%v", what, rows, peak, got == nil)
					}
				}
				const sweep = 32
				for i := int64(0); i <= sweep; i++ {
					runBoth(t, snap, def, ref, caps{MaxBytes: 1 + bytes*i/sweep}, fmt.Sprintf("%s byte cap %d", what, 1+bytes*i/sweep))
				}
				for _, b := range []int64{bytes - 1, bytes, bytes + 1} {
					got := runBoth(t, snap, def, ref, caps{MaxBytes: b}, fmt.Sprintf("%s byte cap %d", what, b))
					if (got == nil) != (b < bytes) {
						t.Fatalf("%s: byte cap %d of %d charged: killed=%v", what, b, bytes, got == nil)
					}
				}
			}
		}
		for _, ps := range tc.must {
			if !reached[ps] {
				t.Errorf("%s: %s never planned to a factorised tail of two or more Fetches", tc.name, ps)
			}
		}
	}
	if byK[2] == 0 || byK[3] == 0 {
		t.Fatalf("tails by length %v: K = 2 and K = 3 must both be exercised", byK)
	}
}

// rowCaps is every MaxTableRows from 1 to one past a peak of at most 300
// rows; past that, every cap up to 300, 40 more spread to the peak, and
// the peak's neighbours.
func rowCaps(peak int) []int {
	var caps []int
	for rows := 1; rows <= min(peak+1, 300); rows++ {
		caps = append(caps, rows)
	}
	if peak+1 > 300 {
		for i := 1; i <= 40; i++ {
			caps = append(caps, 300+(peak-300)*i/40)
		}
		caps = append(caps, peak-1, peak, peak+1)
	}
	return caps
}

// writtenOut pins, per served dataset, planner and query, how many of the
// plan's Fetches trace not Factorised: a later step read rows, or the
// Fetch read two branches of the forest, so the result was written out
// there. Every query not named writes none out. A Fetch that keeps its
// survivors hangs under every column before it, writing its input out
// where it would not; no served query reaches that, so it adds nothing
// here.
var writtenOut = map[string]int{
	"xmark100k DP P4": 1, "xmark100k DP P5": 1, "xmark100k DP P6": 1,
	"xmark100k DP P7": 2, "xmark100k DP P8": 2, "xmark100k DP P9": 1,
	"xmark100k DP T2": 1, "xmark100k DP T3": 1, "xmark100k DP T4": 2,
	"xmark100k DP T6": 2, "xmark100k DP T7": 2, "xmark100k DP T8": 1, "xmark100k DP T9": 1,
	"xmark100k DP Q4": 1, "xmark100k DP Q5": 1, "xmark100k DP CY5": 1,
	"xmark100k DPS CY5":     1,
	"skew20k DP S4-diamond": 1, "skew20k DPS S4-diamond": 2,
	"skew20k DP S5-diamond": 1, "skew20k DP S7-tailed": 1,
}

// TestEveryFetchFactorised: every query of the served batteries, on both
// served datasets under DP and DPS, writes out exactly the Fetches
// writtenOut names — every other Fetch traces Factorised, its column kept
// in the result, and the result binds one expanded column per such Fetch.
// T5's semijoin group on a prefix column drops prefix rows of the
// factorised result instead of writing it out.
func TestEveryFetchFactorised(t *testing.T) {
	ctx := context.Background()
	for _, ds := range servedDatasets() {
		db := buildServed(t, ds)
		snap, release := db.Pin()
		for _, q := range ds.queries() {
			for _, algo := range allPlanners {
				key := fmt.Sprintf("%s %v %s", ds.name, algo, q.name)
				plan, err := exec.BuildPlanSnapConfig(snap, pattern.MustParse(q.pattern), algo, exec.PlanConfig{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				res, traces, err := exec.Run(ctx, snap, plan, true, exec.RunConfig{Budget: &rjoin.Budget{ResultRows: q.limit}})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				fetches, written := 0, 0
				for _, tr := range traces {
					if tr.Step.Kind == optimizer.StepFetch || tr.Step.Kind == optimizer.StepJoinFilterFetch {
						fetches++
						if !tr.Factorised {
							written++
						}
					}
				}
				if written != writtenOut[key] || res.K() != fetches-written {
					t.Errorf("%s: %d of %d Fetches written out, want %d; %d expanded columns", key, written, fetches, writtenOut[key], res.K())
				}
			}
		}
		release()
		db.Close()
	}
}
