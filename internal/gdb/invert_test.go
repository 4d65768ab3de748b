package gdb

import (
	"reflect"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// TestInvertCoverMatchesReference compares the counting-sort inversion
// against a straightforward map-of-maps reference inversion (the former
// implementation) on a random graph.
func TestInvertCoverMatchesReference(t *testing.T) {
	g := randomGraph(14, 250, 800, 3)
	cover := twohop.Compute(g, twohop.Options{})
	db, err := BuildFromIndex(g, cover, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Reference inversion.
	type key struct {
		w   graph.NodeID
		dir byte
		l   graph.Label
	}
	want := make(map[key][]graph.NodeID)
	centerSet := make(map[graph.NodeID]bool)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		lv := g.LabelOf(v)
		for _, w := range cover.Out(v) {
			want[key{w, dirF, lv}] = append(want[key{w, dirF, lv}], v)
			centerSet[w] = true
		}
		for _, w := range cover.In(v) {
			want[key{w, dirT, lv}] = append(want[key{w, dirT, lv}], v)
			centerSet[w] = true
		}
	}
	for w := range centerSet {
		lw := g.LabelOf(w)
		want[key{w, dirF, lw}] = insertSorted(want[key{w, dirF, lw}], w)
		want[key{w, dirT, lw}] = insertSorted(want[key{w, dirT, lw}], w)
	}

	inv := invertCover(db.Graph(), cover)
	if len(inv.centers) != len(centerSet) {
		t.Fatalf("%d centers, want %d", len(inv.centers), len(centerSet))
	}
	got := 0
	for ci, w := range inv.centers {
		for dir := 0; dir < 2; dir++ {
			for l := 0; l < inv.nLabels; l++ {
				s := (ci*2+dir)*inv.nLabels + l
				seg := inv.members[inv.offsets[s]:inv.offsets[s+1]]
				ref := want[key{w, byte(dir), graph.Label(l)}]
				if len(seg) == 0 && len(ref) == 0 {
					continue
				}
				got++
				if !reflect.DeepEqual([]graph.NodeID(seg), ref) {
					t.Fatalf("subcluster (%d,%d,%d) = %v, want %v", w, dir, l, seg, ref)
				}
			}
		}
	}
	nonEmpty := 0
	for _, v := range want {
		if len(v) > 0 {
			nonEmpty++
		}
	}
	if got != nonEmpty {
		t.Fatalf("%d non-empty subclusters, want %d", got, nonEmpty)
	}
}
