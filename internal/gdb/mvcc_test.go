package gdb

import (
	"slices"
	"testing"
	"time"

	"fastmatch/internal/graph"
)

// freshEdge returns a (u, v) pair that is not yet an edge of g.
func freshEdge(t *testing.T, g *graph.Graph) (graph.NodeID, graph.NodeID) {
	t.Helper()
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if u != v && !slices.Contains(g.Successors(u), v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

// TestInsertDoesNotBlockReaders stalls the insert writer after it has
// built its private copy-on-write snapshot but before the epoch publish,
// and proves a concurrent reader completes against the old epoch in the
// meantime — the no-reader-blocking guarantee of the MVCC design (the old
// maintenance lock would have deadlocked this test).
func TestInsertDoesNotBlockReaders(t *testing.T) {
	g := randomGraph(11, 40, 90, 3)
	db := mustBuild(t, g, Options{})
	u, v := freshEdge(t, g)

	entered := make(chan struct{})
	unblock := make(chan struct{})
	db.insertPublishHook = func() {
		close(entered)
		<-unblock
	}
	before := db.EpochStats().Current

	done := make(chan error, 1)
	go func() {
		_, err := db.ApplyEdgeInsert(u, v)
		done <- err
	}()

	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("writer never reached the publish point")
	}

	// The writer is stalled mid-insert. A reader must still pin the old
	// epoch and finish a full index read without waiting.
	s, release := db.Pin()
	if s.Epoch() != before {
		t.Fatalf("reader pinned epoch %d, want pre-insert epoch %d", s.Epoch(), before)
	}
	if got := s.Graph().NumEdges(); got != g.NumEdges() {
		t.Fatalf("reader sees %d edges, want pre-insert %d", got, g.NumEdges())
	}
	if _, err := s.Reaches(u, v); err != nil {
		t.Fatalf("read under stalled writer: %v", err)
	}
	release()

	close(unblock)
	if err := <-done; err != nil {
		t.Fatalf("insert: %v", err)
	}
	st := db.EpochStats()
	if st.Current != before+1 {
		t.Fatalf("epoch after insert = %d, want %d", st.Current, before+1)
	}
	ok, err := db.Reaches(u, v)
	if err != nil || !ok {
		t.Fatalf("new epoch must contain the edge: ok=%v err=%v", ok, err)
	}
}

// TestPinnedEpochOutlivesPublish: a reader that pinned before an insert
// keeps its version (old edge count, old reachability) while the database
// has moved on, and the superseded epoch is retired once released.
func TestPinnedEpochOutlivesPublish(t *testing.T) {
	g := randomGraph(12, 40, 90, 3)
	db := mustBuild(t, g, Options{})
	u, v := freshEdge(t, g)

	old, release := db.Pin()
	if _, err := db.ApplyEdgeInsert(u, v); err != nil {
		t.Fatal(err)
	}
	st := db.EpochStats()
	if st.Pinned != 2 {
		t.Fatalf("pinned epochs = %d, want 2 (old reader + current)", st.Pinned)
	}
	if old.Graph().NumEdges() != g.NumEdges() {
		t.Fatalf("pinned snapshot grew: %d edges, want %d", old.Graph().NumEdges(), g.NumEdges())
	}
	ok, err := old.Reaches(u, v)
	if err != nil {
		t.Fatal(err)
	}
	if ok && !graph.Reaches(g, u, v) {
		t.Fatal("pinned snapshot answers with the new edge")
	}
	retiredBefore := st.Retired

	release()
	st = db.EpochStats()
	if st.Pinned != 1 {
		t.Fatalf("pinned epochs after release = %d, want 1", st.Pinned)
	}
	if st.Retired != retiredBefore+1 {
		t.Fatalf("retired = %d, want %d", st.Retired, retiredBefore+1)
	}
}

// TestBatchPublishesOneEpoch: a multi-edge batch becomes visible in one
// atomic epoch publish, and a duplicate-only batch publishes nothing.
func TestBatchPublishesOneEpoch(t *testing.T) {
	g := randomGraph(13, 40, 60, 3)
	db := mustBuild(t, g, Options{})
	u1, v1 := freshEdge(t, g)
	g2 := g.WithEdge(u1, v1)
	u2, v2 := freshEdge(t, g2)

	before := db.EpochStats().Current
	stats, err := db.ApplyEdgeInserts([][2]graph.NodeID{{u1, v1}, {u2, v2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 || stats[0].Duplicate || stats[1].Duplicate {
		t.Fatalf("batch stats = %+v", stats)
	}
	if got := db.EpochStats().Current; got != before+1 {
		t.Fatalf("epoch after 2-edge batch = %d, want %d (one publish per batch)", got, before+1)
	}

	// Re-inserting the same edges is a no-op batch: no new epoch.
	if _, err := db.ApplyEdgeInserts([][2]graph.NodeID{{u1, v1}, {u2, v2}}); err != nil {
		t.Fatal(err)
	}
	if got := db.EpochStats().Current; got != before+1 {
		t.Fatalf("duplicate-only batch published epoch %d", got)
	}
}

// TestSuccessorInheritsDecodedMemos: a published epoch starts with its
// predecessor's decoded index, sharing every chunk that holds no node or
// center the write batch rewrote, and with its partner tables minus the
// slots the batch may have changed. The new epoch must serve post-batch
// lists while a reader still pinned to the old epoch keeps serving
// pre-batch lists. Across insert batches — where a code or subcluster the
// batch touched always changes — a chunk holding nothing that changed is
// the old epoch's own chunk, and one holding something that did is a
// rebuilt one.
func TestSuccessorInheritsDecodedMemos(t *testing.T) {
	g := randomGraph(14, 1500, 1400, 3)
	db := mustBuild(t, g, Options{})
	old, releaseOld := db.Pin()
	defer releaseOld()
	warmReadPath(t, old)
	slotsBefore := checkReadPath(t, old, "warm")

	// One batch that both adds and removes label entries: insert edges
	// until the cover grows, then delete an existing edge.
	cur := g
	grew := false
	for !grew {
		u, v := freshEdge(t, cur)
		st, err := db.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.WithEdge(u, v)
		grew = st.LabelEntries > 0
	}
	mid, releaseMid := db.Pin()
	checkChunksShared(t, old, mid)
	releaseMid()
	var del [2]graph.NodeID
	for u := graph.NodeID(0); ; u++ {
		if succ := g.Successors(u); len(succ) > 0 {
			del = [2]graph.NodeID{u, succ[0]}
			break
		}
	}
	if _, err := db.ApplyEdgeDelete(del[0], del[1]); err != nil {
		t.Fatal(err)
	}

	next, releaseNext := db.Pin()
	defer releaseNext()
	if next.Epoch() == old.Epoch() {
		t.Fatal("batches published no epoch")
	}
	// Nothing has read through next yet: whatever its partner tables hold
	// was inherited, and every inherited entry must be post-batch truth, as
	// must its whole decoded index.
	if inherited := checkReadPath(t, next, "inherited"); inherited == 0 || inherited >= slotsBefore {
		t.Fatalf("successor inherited %d partner slots of %d", inherited, slotsBefore)
	}
	changed := 0
	for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
		if !sameSubclusters(old, next, w) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the batches changed no subcluster; the test proves nothing")
	}
	// Reading everything through next refills the cleared slots.
	warmReadPath(t, next)
	if slots := checkReadPath(t, next, "refilled"); slots == 0 {
		t.Fatal("warming the successor filled no partner slot")
	}

	// The pinned old epoch still serves exactly what it held.
	if slots := checkReadPath(t, old, "old epoch"); slots != slotsBefore {
		t.Fatalf("old epoch holds %d partner slots after the publishes, %d before", slots, slotsBefore)
	}
}
