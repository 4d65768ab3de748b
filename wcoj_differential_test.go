package fastmatch_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// wcojRandomGraph builds a labeled random digraph for the differential
// battery (labels A..E, possibly cyclic).
func wcojRandomGraph(seed int64, n, m, nlabels int) *graph.Graph {
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

// wcojBattery is the connected pattern battery for the WCOJ differential:
// paths, trees, triangles, a diamond, and a 4-clique. Every pattern is
// connected, so the forced full-pattern WCOJ plan exists for each.
var wcojBattery = []string{
	"A->B",
	"A->B; B->C",
	"A->B; A->C",
	"A->C; B->C",
	"A->B; B->C; A->C",
	"A->B; B->C; C->A",
	"A->B; B->C; C->D; A->D",
	"A->B; A->C; B->D; C->D",
	"A->B; A->C; A->D; B->C; B->D; C->D",
	"A->C; B->C; C->D; D->E",
	"A->B; B->C; C->D; D->E; A->E; B->D",
}

// TestWCOJDifferential: on random graphs, the forced full-pattern WCOJ
// plan returns exactly the DP and DPS result sets for every battery
// pattern.
func TestWCOJDifferential(t *testing.T) {
	// Edge densities sit near the giant-SCC threshold (m ≈ n): dense
	// enough for non-trivial cycles and closure, sparse enough that the
	// 5-node battery patterns do not explode into millions of rows.
	for _, gc := range []struct {
		seed int64
		n, m int
	}{
		{41, 100, 130},
		{42, 140, 190},
		{43, 80, 120},
	} {
		totalRows := 0
		g := wcojRandomGraph(gc.seed, gc.n, gc.m, 5)
		db, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ctx := context.Background()
		snap, release := db.Pin()
		defer release()

		for _, ps := range wcojBattery {
			p := pattern.MustParse(ps)

			want, err := exec.Query(db, p, exec.DP)
			if err != nil {
				t.Fatalf("seed %d %q DP: %v", gc.seed, ps, err)
			}
			want.SortRows()
			totalRows += want.Len()
			dps, err := exec.Query(db, p, exec.DPS)
			if err != nil {
				t.Fatalf("seed %d %q DPS: %v", gc.seed, ps, err)
			}
			dps.SortRows()
			if !reflect.DeepEqual(want.Rows, dps.Rows) {
				t.Fatalf("seed %d %q: DP and DPS disagree (%d vs %d rows)",
					gc.seed, ps, want.Len(), dps.Len())
			}

			plan, err := exec.BuildPlanSnapConfig(snap, p, exec.WCOJ, exec.PlanConfig{})
			if err != nil {
				t.Fatalf("seed %d %q: WCOJ plan: %v", gc.seed, ps, err)
			}
			res, err := exec.RunSnapConfig(ctx, snap, plan, exec.RunConfig{})
			if err != nil {
				t.Fatalf("seed %d %q: %v", gc.seed, ps, err)
			}
			// The WCOJ table's columns follow the variable order; remap
			// to pattern-node order before comparing result sets.
			cols := make([]int, p.NumNodes())
			for i := range cols {
				cols[i] = i
			}
			norm := rjoin.NewTable(cols...)
			for _, row := range res.Rows {
				nr := make([]graph.NodeID, len(row))
				for i, col := range res.Cols {
					nr[col] = row[i]
				}
				norm.Rows = append(norm.Rows, nr)
			}
			norm.SortRows()
			if !reflect.DeepEqual(norm.Rows, want.Rows) {
				t.Fatalf("seed %d %q: WCOJ %d rows != DP %d rows",
					gc.seed, ps, res.Len(), want.Len())
			}
		}
		if totalRows == 0 {
			t.Fatalf("seed %d: whole battery empty — graph too sparse to prove anything", gc.seed)
		}
	}
}
