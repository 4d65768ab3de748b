package fastmatch_test

import (
	"reflect"
	"testing"

	"fastmatch/internal/baseline/igmj"
	"fastmatch/internal/baseline/twigstackd"
	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/optimizer"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// TestAllSystemsAgree is the repository's acceptance test: on an
// XMark-substitute DAG, every implemented system — the naive matcher, the
// R-join engine under DP and DPS plans, TwigStackD, and
// INT-DP/IGMJ — returns the identical result set for every path and tree
// workload of Figure 5 (TSD only supports twigs, which is why this runs on
// the path/tree batteries).
func TestAllSystemsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 6000, Seed: 9, DAG: true})
	g := d.Graph

	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tsd, err := twigstackd.BuildIndex(g)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := igmj.BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	var batteries []workload.Workload
	batteries = append(batteries, workload.Paths()...)
	batteries = append(batteries, workload.Trees()...)

	for _, w := range batteries {
		want, err := exec.NaiveMatch(g, w.Pattern)
		if err != nil {
			t.Fatalf("%s naive: %v", w.Name, err)
		}
		want.SortRows()

		results := map[string]*rjoin.Table{}
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			res, err := exec.Query(db, w.Pattern, algo)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, algo, err)
			}
			results[algo.String()] = res
		}
		tsdRes, err := twigstackd.Match(tsd, w.Pattern)
		if err != nil {
			t.Fatalf("%s TSD: %v", w.Name, err)
		}
		results["TSD"] = tsdRes

		snap, release := db.Pin()
		bind, err := optimizer.Bind(snap, w.Pattern)
		release()
		if err != nil {
			t.Fatalf("%s bind: %v", w.Name, err)
		}
		dpPlan, err := optimizer.OptimizeDP(bind, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatalf("%s DP plan: %v", w.Name, err)
		}
		intdp, err := igmj.Run(ig, dpPlan)
		if err != nil {
			t.Fatalf("%s INT-DP: %v", w.Name, err)
		}
		results["INT-DP"] = intdp

		for name, res := range results {
			res.SortRows()
			if !reflect.DeepEqual(res.Rows, want.Rows) {
				t.Fatalf("%s: %s returned %d rows, naive %d — result sets differ",
					w.Name, name, res.Len(), want.Len())
			}
		}
	}
}

// TestAllSystemsAgreeCyclic repeats the agreement check on cyclic data for
// the systems that support general digraphs (everything except TSD), over
// the graph-pattern batteries.
func TestAllSystemsAgreeCyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 6000, Seed: 10})
	g := d.Graph
	if graph.IsDAG(g) {
		t.Fatal("expected cyclic data")
	}

	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ig, err := igmj.BuildIndex(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	var batteries []workload.Workload
	batteries = append(batteries, workload.Graphs4A()...)
	batteries = append(batteries, workload.Graphs5B()...)

	for _, w := range batteries {
		want, err := exec.NaiveMatch(g, w.Pattern)
		if err != nil {
			t.Fatalf("%s naive: %v", w.Name, err)
		}
		want.SortRows()
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			res, err := exec.Query(db, w.Pattern, algo)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, algo, err)
			}
			res.SortRows()
			if !reflect.DeepEqual(res.Rows, want.Rows) {
				t.Fatalf("%s: %s differs from naive (%d vs %d rows)", w.Name, algo, res.Len(), want.Len())
			}
		}
		snap, release := db.Pin()
		bind, err := optimizer.Bind(snap, w.Pattern)
		release()
		if err != nil {
			t.Fatal(err)
		}
		dpPlan, err := optimizer.OptimizeDP(bind, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		intdp, err := igmj.Run(ig, dpPlan)
		if err != nil {
			t.Fatalf("%s INT-DP: %v", w.Name, err)
		}
		intdp.SortRows()
		if !reflect.DeepEqual(intdp.Rows, want.Rows) {
			t.Fatalf("%s: INT-DP differs from naive (%d vs %d rows)", w.Name, intdp.Len(), want.Len())
		}
	}
}
