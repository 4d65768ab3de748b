package fastmatch_test

import (
	"context"
	"reflect"
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// cyclicBattery is the connected pattern battery of the differential:
// paths, trees, triangles (transitive and directed-cycle), a 4-cycle, a
// diamond, a 4-clique and a 5-node pattern with two chords.
var cyclicBattery = []string{
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

// TestWCOJDifferential: on random cyclic graphs, DP's and DPS's default
// plans return exactly the rows, in the same order, of the same plan run in
// the counted-I/O reference mode (PlanConfig.NoFastPath: pool reads, spill,
// hash-dedup projection, no fused filters), and DP and DPS agree on the
// result set. The name is kept from the worst-case-optimal multiway join
// this battery was written for; it now holds the binary plans that replaced
// it on the same cyclic shapes.
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
		g := fastpathRandomGraph(gc.seed, gc.n, gc.m, 5)
		db, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ctx := context.Background()
		snap, release := db.Pin()
		defer release()

		for _, ps := range cyclicBattery {
			p := pattern.MustParse(ps)
			var sets [2]*rjoin.Table
			for ai, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
				var tabs [2]*rjoin.Table
				for i, pc := range []exec.PlanConfig{{NoFastPath: true}, {}} {
					plan, err := exec.BuildPlanSnapConfig(snap, p, algo, pc)
					if err != nil {
						t.Fatalf("seed %d %q %v %+v: plan: %v", gc.seed, ps, algo, pc, err)
					}
					if tabs[i], err = exec.RunSnapConfig(ctx, snap, plan, exec.RunConfig{}); err != nil {
						t.Fatalf("seed %d %q %v %+v: %v", gc.seed, ps, algo, pc, err)
					}
				}
				ref, got := tabs[0], tabs[1]
				if got.Len() != ref.Len() || (ref.Len() > 0 && !reflect.DeepEqual(got.Rows, ref.Rows)) {
					t.Fatalf("seed %d %q %v: default plan's %d rows differ in content or order from the reference plan's %d",
						gc.seed, ps, algo, got.Len(), ref.Len())
				}
				got.SortRows()
				sets[ai] = got
			}
			if sets[0].Len() != sets[1].Len() || (sets[0].Len() > 0 && !reflect.DeepEqual(sets[0].Rows, sets[1].Rows)) {
				t.Fatalf("seed %d %q: DP and DPS disagree (%d vs %d rows)", gc.seed, ps, sets[0].Len(), sets[1].Len())
			}
			totalRows += sets[0].Len()
		}
		if totalRows == 0 {
			t.Fatalf("seed %d: whole battery empty — graph too sparse to prove anything", gc.seed)
		}
	}
}
