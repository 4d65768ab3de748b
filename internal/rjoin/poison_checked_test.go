//go:build fgmcheck

package rjoin

import (
	"context"
	goruntime "runtime"
	"slices"
	"testing"
)

// TestReleasePoisons: under -tags fgmcheck a released runtime's buffers
// are poisoned before they go back to the pools, so a Result read after
// the release reads poisonNode in every cell — the served answers then
// change their hashes — and the next query draws the same buffer back and
// writes its own answer over the poison.
func TestReleasePoisons(t *testing.T) {
	// One P: what a Put leaves in a pool's per-P slot, the next Get takes.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	g := randomGraph(45, 600, 1600, 2)
	db := mustDB(t, g)
	ctx := context.Background()
	c := cond(g, "A", "B", 0, 1)

	rt := new(Runtime)
	res, err := rt.HPSJ(ctx, db, c)
	if err != nil || res.N == 0 {
		t.Fatalf("HPSJ: %d rows, %v", res.N, err)
	}
	want := slices.Clone(res.Data)
	data, pairs := res.Data[:cap(res.Data)], *rt.pairs[0]
	pairs = pairs[:cap(pairs)]
	rt.Release()
	for i, v := range data {
		if v != poisonNode {
			t.Fatalf("cell %d of a released result reads %d, not the poison %d", i, v, poisonNode)
		}
	}
	for i, k := range pairs {
		if x, y := pairNodes(k); x != poisonNode || y != poisonNode {
			t.Fatalf("released pair %d reads (%d, %d), not the poison", i, x, y)
		}
	}

	next, err := new(Runtime).HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if &next.Data[0] != &data[0] {
		t.Fatal("the next query did not draw the released buffer")
	}
	if !slices.Equal(next.Data, want) {
		t.Fatalf("the next query's %d rows over the released buffer differ from the first's %d", next.N, res.N)
	}
	// The allocation tests count what a never-released runtime allocates:
	// leave them empty pools. A GC moves a pool's buffers to its victim
	// cache, and the next drops them.
	goruntime.GC()
	goruntime.GC()
}
