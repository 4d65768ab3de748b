package gdb

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// allWRows reads every non-empty W row of s through the W-table and heap.
func allWRows(t *testing.T, s *Snap) map[wKey][]graph.NodeID {
	t.Helper()
	rows := make(map[wKey][]graph.NodeID)
	L := s.g.Labels().Len()
	for x := graph.Label(0); int(x) < L; x++ {
		for y := graph.Label(0); int(y) < L; y++ {
			ws, err := s.Centers(x, y)
			if err != nil {
				t.Fatalf("W(%d, %d): %v", x, y, err)
			}
			if len(ws) > 0 {
				rows[wKey{x, y}] = ws
			}
		}
	}
	return rows
}

func sameWRows(t *testing.T, what string, got, want map[wKey][]graph.NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-empty W rows, want %d", what, len(got), len(want))
	}
	for k, ws := range want {
		if !slices.Equal(got[k], ws) {
			t.Fatalf("%s: W(%d, %d) holds %d centers, want %d", what, k.x, k.y, len(got[k]), len(ws))
		}
	}
}

// TestWriteStreamReclaims: insert/delete pairs leave the graph as they
// found it, so the page store must not grow with them. Superseded tree
// pages and heap chains are recycled; only inline records on slotted
// pages stay behind.
func TestWriteStreamReclaims(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 1}).Graph
	db, err := Build(g, Options{PoolBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	built := db.SizeBytes()
	_, recycled0 := db.PageStats()
	for _, batch := range writePairs(1, g, 40, 4) {
		insertDeletePair(t, db, batch)
	}
	free, recycled := db.PageStats()
	if recycled == recycled0 || free == 0 {
		t.Fatalf("40 pairs recycled %d pages and left %d free: want both above zero", recycled-recycled0, free)
	}
	if size := db.SizeBytes(); size > 2*built {
		t.Fatalf("page store grew from %d to %d bytes over 40 insert/delete pairs: want at most 2x", built, size)
	}
}

// TestPinnedReaderAcrossRecycling: a reader pinned to one epoch keeps
// reading that epoch's W rows, subclusters and partner lists, through the
// pool and decoded, while more than 50 batches publish around it and
// recycle the pages they supersede — with a second reader racing the
// writer (run it under -race).
func TestPinnedReaderAcrossRecycling(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 5000, Seed: 3}).Graph
	db, err := Build(g, Options{PoolBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s0, release := db.Pin()
	defer release()
	rows := allWRows(t, s0)
	type sub struct {
		w   graph.NodeID
		dir byte
		l   graph.Label
	}
	subs := make(map[sub][]graph.NodeID)
	pairs := make([]wKey, 0, len(rows))
	for k, ws := range rows {
		pairs = append(pairs, k)
		for _, w := range ws[:min(len(ws), 8)] {
			f, err := s0.GetF(w, k.x)
			if err != nil {
				t.Fatal(err)
			}
			tt, err := s0.GetT(w, k.y)
			if err != nil {
				t.Fatal(err)
			}
			subs[sub{w, dirF, k.x}], subs[sub{w, dirT, k.y}] = f, tt
		}
	}
	slices.SortFunc(pairs, compareWKeys)
	pairs = pairs[:min(len(pairs), 40)]
	answers := func(s *Snap) map[wKey][]int {
		out := make(map[wKey][]int)
		r := s.Reader()
		for _, k := range pairs {
			p, err := r.Partners(k.x, k.y, true)
			if err != nil {
				t.Error(err)
				return nil
			}
			for _, v := range g.Extent(k.x)[:min(g.ExtentSize(k.x), 20)] {
				l, err := p.Of(v)
				if err != nil {
					t.Error(err)
					return nil
				}
				out[k] = append(out[k], len(l))
			}
		}
		return out
	}
	want := answers(s0)
	check := func(what string) {
		sameWRows(t, what, allWRows(t, s0), rows)
		for k, nodes := range subs {
			got, err := s0.clusterLookup(k.w, k.dir, k.l)
			if err != nil || !slices.Equal(got, nodes) {
				t.Fatalf("%s: subcluster (%d, %d, %d) = %v (%v), want %v", what, k.w, k.dir, k.l, got, err, nodes)
			}
		}
		got := answers(s0)
		for k, ls := range want {
			if !slices.Equal(got[k], ls) {
				t.Fatalf("%s: partner lists of %d->%d = %v, want %v", what, k.x, k.y, got[k], ls)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a reader of whatever epoch is current, racing the writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, rel := db.Pin()
			for _, k := range pairs {
				if _, err := s.Centers(k.x, k.y); err != nil {
					t.Error(err)
				}
			}
			rel()
		}
	}()
	_, recycled0 := db.PageStats()
	for i, batch := range writePairs(3, g, 30, 4) {
		insertDeletePair(t, db, batch)
		if i%10 == 9 {
			check("pinned epoch 0")
		}
	}
	close(stop)
	wg.Wait()
	check("pinned epoch 0")
	if _, recycled := db.PageStats(); recycled == recycled0 {
		t.Fatal("60 batches recycled no page")
	}
	// Once the pin goes, everything the batches superseded is recyclable.
	release()
	if free, _ := db.PageStats(); free == 0 {
		t.Fatal("no free page after the pinned epoch retired")
	}
}

// TestCrashAfterSyncOpensSyncedState: a page the synced manifest reaches
// must not be recycled before the next Sync, even once no epoch reaches
// it. The database syncs, applies more batches — recycling what the
// batches before the Sync superseded and what the batches after it
// allocated and superseded again — writes every dirty frame to the file
// and stops: a crash. The page file, opened with the last synced manifest,
// must read exactly the synced state.
func TestCrashAfterSyncOpensSyncedState(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 5000, Seed: 2}).Graph
	path := filepath.Join(t.TempDir(), "crash.fdb")
	db, err := Build(g, Options{Path: path, PoolBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batches := writePairs(2, g, 60, 4)
	for _, b := range batches[:20] {
		if _, err := db.ApplyEdgeInserts(b); err != nil {
			t.Fatal(err)
		}
	}
	held := len(db.undurable)
	_, recycledBefore := db.PageStats()
	if held == 0 {
		t.Fatal("20 batches superseded no page the built manifest reaches")
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	_, recycled0 := db.PageStats()
	if len(db.undurable) != 0 || recycled0-recycledBefore < int64(held) {
		t.Fatalf("the Sync recycled %d pages and holds %d: want the %d the built manifest reached", recycled0-recycledBefore, len(db.undurable), held)
	}
	s, release := db.Pin()
	rows := allWRows(t, s)
	in, out := s.storedCodes()
	release()
	manifest, err := os.ReadFile(manifestPath(path))
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range batches[20:] {
		if _, err := db.ApplyEdgeInserts(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, recycled := db.PageStats(); recycled == recycled0 {
		t.Fatal("40 batches after the Sync recycled no page")
	}
	if len(db.undurable) == 0 {
		t.Fatal("40 batches superseded no page the synced manifest reaches")
	}
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(manifestPath(path)); err != nil || string(got) != string(manifest) {
		t.Fatalf("manifest changed without a Sync (%v)", err)
	}

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs, rrelease := re.Pin()
	defer rrelease()
	sameWRows(t, "reopened", allWRows(t, rs), rows)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		rec, err := re.codeRecord(rs.base, rs.g, v)
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		i, o := decodeCodes(rec)
		if !slices.Equal(i, in[v]) || !slices.Equal(o, out[v]) {
			t.Fatalf("node %d: reopened codes differ from the synced ones", v)
		}
	}
}
