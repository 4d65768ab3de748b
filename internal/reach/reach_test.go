package reach_test

import (
	"reflect"
	"strings"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/reach"
	"fastmatch/internal/twohop"
)

// TestRegistry pins what is left of the backend registry: Lookup, kept for
// benchmark/, accepts only the empty name, and its Builder computes the
// cover gdb.Build stores; every other name, "twohop" and "pll" included, is
// an error that names it.
func TestRegistry(t *testing.T) {
	g := randomGraph(36, 60, 150, 3)
	b, err := reach.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	got, want := b.Build(g, reach.Options{}), twohop.Compute(g, twohop.Options{})
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !reflect.DeepEqual(got.In(v), want.In(v)) || !reflect.DeepEqual(got.Out(v), want.Out(v)) {
			t.Fatalf("Lookup(\"\").Build differs from twohop.Compute at node %d", v)
		}
	}
	for _, name := range []string{"twohop", "pll", "no-such-backend"} {
		if _, err := reach.Lookup(name); err == nil {
			t.Fatalf("Lookup(%q) should error", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Fatalf("error should name %q: %v", name, err)
		}
	}
}

// TestVerifyIndex: the cover Lookup's Builder returns passes Verify, and
// Verify reports the first pair a corrupted labeling stops covering. The
// corruption goes through In, whose slice aliases the cover's storage.
func TestVerifyIndex(t *testing.T) {
	g := chainGraph(8)
	b, err := reach.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	idx := b.Build(g, reach.Options{})
	if err := idx.Verify(); err != nil {
		t.Fatal(err)
	}
	last := graph.NodeID(7)
	in := idx.In(last)
	if len(in) == 0 {
		t.Fatal("the end of a chain should carry in-entries")
	}
	for i := range in {
		in[i] = last // every center of node 7 replaced by node 7 itself
	}
	if err := idx.Verify(); err == nil || !strings.Contains(err.Error(), "7)") {
		t.Fatalf("corrupted cover: Verify = %v, want a disagreement on a pair ending at 7", err)
	}
}

// TestStatsString covers the formatting of either labeling's statistics.
func TestStatsString(t *testing.T) {
	g := randomGraph(34, 50, 120, 2)
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		str := twohop.Compute(g, opt).Stats().String()
		if !strings.HasPrefix(str, "twohop{") || !strings.Contains(str, "|H|") {
			t.Fatalf("Stats string %q should name the construction and |H|", str)
		}
	})
}

// TestIncrementalNumNodes covers the Incremental's accessors.
func TestIncrementalNumNodes(t *testing.T) {
	g := chainGraph(7)
	forEachLabeling(t, func(t *testing.T, opt twohop.Options) {
		inc := newInc(opt, g)
		if inc.NumNodes() != 7 {
			t.Fatalf("NumNodes = %d", inc.NumNodes())
		}
		if !inc.HasEdge(0, 1) || inc.HasEdge(1, 0) {
			t.Fatal("HasEdge wrong on chain")
		}
	})
}

// TestBackendsAreDistinct: the two labelings every test runs on are
// different covers — so the second subtest is not a copy of the first —
// yet answer every Reaches question identically.
func TestBackendsAreDistinct(t *testing.T) {
	g := randomGraph(35, 90, 270, 3)
	a := twohop.Compute(g, labelings[0].opt)
	b := twohop.Compute(g, labelings[1].opt)
	differ := 0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !reflect.DeepEqual(a.In(v), b.In(v)) || !reflect.DeepEqual(a.Out(v), b.Out(v)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two labelings are identical")
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if a.Reaches(u, v) != b.Reaches(u, v) {
				t.Fatalf("labelings disagree on Reaches(%d,%d)", u, v)
			}
		}
	}
}
