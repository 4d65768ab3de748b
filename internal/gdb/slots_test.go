package gdb

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fastmatch/internal/graph"
)

// publishBatch publishes one batch of a mixed stream: three fresh edges
// inserted when i is even, three existing edges deleted when it is odd. It
// returns the graph after the batch.
func publishBatch(t *testing.T, db *DB, rng *rand.Rand, cur *graph.Graph, i int) *graph.Graph {
	t.Helper()
	n := cur.NumNodes()
	var edges [][2]graph.NodeID
	for len(edges) < 3 {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		e := [2]graph.NodeID{u, v}
		if i%2 == 1 {
			succ := cur.Successors(u)
			if len(succ) == 0 {
				continue
			}
			e[1] = succ[0]
		} else if u == v || slices.Contains(cur.Successors(u), v) {
			continue
		}
		if !slices.Contains(edges, e) {
			edges = append(edges, e)
		}
	}
	epoch := db.EpochStats().Current
	var err error
	if i%2 == 1 {
		_, err = db.ApplyEdgeDeletes(edges)
		cur = cur.WithoutEdges(edges)
	} else {
		_, err = db.ApplyEdgeInserts(edges)
		cur = cur.WithEdges(edges)
	}
	if err != nil {
		t.Fatalf("batch %d: %v", i, err)
	}
	if got := db.EpochStats().Current; got != epoch+1 {
		t.Fatalf("batch %d: epoch %d -> %d, want one publish", i, epoch, got)
	}
	return cur
}

// readSome reads, through s's decoded read path, the subclusters, codes
// and partners of a few random nodes.
func readSome(t testing.TB, s *Snap, rng *rand.Rand) {
	r := s.Reader()
	nl := s.g.Labels().Len()
	for range 20 {
		x, y := graph.Label(rng.Intn(nl)), graph.Label(rng.Intn(nl))
		v := graph.NodeID(rng.Intn(s.g.NumNodes()))
		if _, err := r.F(v, x); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.T(v, y); err != nil {
			t.Error(err)
			return
		}
		p, err := r.Partners(x, y, rng.Intn(2) == 0)
		if err != nil {
			t.Error(err)
			return
		}
		ext := s.g.Extent(p.t.bound)
		for range 8 {
			if len(ext) == 0 {
				break
			}
			if _, err := p.Of(ext[rng.Intn(len(ext))]); err != nil {
				t.Error(err)
				return
			}
		}
	}
}

// sharedChunks counts the chunks two epochs' code caches, subcluster memos
// and partner tables share by pointer.
func sharedChunks(a, b *Snap) int {
	count := func(x, y []any) int {
		n := 0
		for i := range x {
			if x[i] != nil && x[i] == y[i] {
				n++
			}
		}
		return n
	}
	n := count(chunkPtrs(&a.codeCache.slots), chunkPtrs(&b.codeCache.slots))
	n += count(chunkPtrs(&a.clmemo), chunkPtrs(&b.clmemo))
	a.pmu.Lock()
	b.pmu.Lock()
	defer a.pmu.Unlock()
	defer b.pmu.Unlock()
	for k, ta := range a.ptabs {
		if tb := b.ptabs[k]; tb != nil {
			n += count(chunkPtrs(&ta.slots), chunkPtrs(&tb.slots))
		}
	}
	return n
}

// TestSharedChunkFillsValidInEveryEpoch pins an epoch, then publishes
// eight mixed batches while readers keep filling the first epoch and every
// epoch published since, each of them pinned. Successive epochs share the
// chunks holding nothing a batch touched, so a fill a reader makes on one
// epoch lands in the chunks of others too; afterwards, everything each
// pinned epoch's read path holds must equal a cold recomputation on that
// epoch's own trees.
func TestSharedChunkFillsValidInEveryEpoch(t *testing.T) {
	g := randomGraph(41, 1500, 1400, 3)
	db := mustBuild(t, g, Options{})
	first, release := db.Pin()
	defer release()
	readSome(t, first, rand.New(rand.NewSource(1)))

	var mu sync.Mutex
	pinned := []*Snap{first}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range 3 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				s := pinned[rng.Intn(len(pinned))]
				if i == 0 {
					s = pinned[0] // one reader stays on the first epoch
				}
				mu.Unlock()
				readSome(t, s, rng)
			}
		}(i)
	}
	rng, cur := rand.New(rand.NewSource(7)), g
	for i := range 8 {
		cur = publishBatch(t, db, rng, cur, i)
		s, release := db.Pin()
		defer release()
		mu.Lock()
		pinned = append(pinned, s)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	shared := 0
	for i, s := range pinned {
		checkReadPath(t, s, "pinned epoch")
		if i > 0 {
			shared += sharedChunks(pinned[i-1], s)
		}
	}
	if shared == 0 {
		t.Fatal("no two successive epochs share a chunk; the test proves nothing")
	}
}

// TestDecodedMemoChargedOncePerChunk: while several pinned epochs share
// chunks, and readers fill each of them, every epoch's decoded_memo_nodes
// equals a recount of what its own directories reach — a chunk is charged
// once, on the chunk, so a fill made through one epoch is counted in every
// epoch that shares its chunk, and nowhere twice.
func TestDecodedMemoChargedOncePerChunk(t *testing.T) {
	g := randomGraph(43, 1500, 1400, 3)
	db := mustBuild(t, g, Options{})
	rng := rand.New(rand.NewSource(3))
	var pinned []*Snap
	cur := g
	for i := range 4 {
		s, release := db.Pin()
		defer release()
		pinned = append(pinned, s)
		readSome(t, s, rng)
		cur = publishBatch(t, db, rng, cur, i)
	}
	for round := range 3 {
		for _, s := range pinned {
			readSome(t, s, rng)
		}
		for i, s := range pinned {
			if got, want := s.DecodedMemoNodes(), recountMemo(s); got != want {
				t.Fatalf("round %d, epoch %d: decoded_memo_nodes = %d, its chunks hold %d", round, i, got, want)
			}
		}
	}
	// A fill through the newest epoch into a chunk the one before shares
	// shows up in both recounts.
	a, b := pinned[len(pinned)-2], pinned[len(pinned)-1]
	memoA, memoB := &a.clmemo, &b.clmemo
	for w := 0; w < g.NumNodes(); w++ {
		ci := w >> chunkBits
		c := memoB.chunks[ci].Load()
		if c == nil || c != memoA.chunks[ci].Load() || memoB.load(w) != nil {
			continue
		}
		list, err := b.clusterLookup(graph.NodeID(w), dirF, g.LabelOf(graph.NodeID(w)))
		if err != nil {
			t.Fatal(err)
		}
		if len(list) == 0 {
			continue
		}
		beforeA, beforeB := a.DecodedMemoNodes(), b.DecodedMemoNodes()
		if _, err := b.Reader().F(graph.NodeID(w), g.LabelOf(graph.NodeID(w))); err != nil {
			t.Fatal(err)
		}
		if da, db := a.DecodedMemoNodes()-beforeA, b.DecodedMemoNodes()-beforeB; da != len(list) || db != len(list) {
			t.Fatalf("filling center %d's %d-node subcluster through the newer epoch moved the charges by %d and %d", w, len(list), da, db)
		}
		return
	}
	t.Fatal("no empty slot in a chunk the last two epochs share; the test proves nothing")
}

// recountMemo sums what s's memos hold by walking every slot its
// directories reach: the memo's lists, and each partner table's slots plus
// the lists they point to.
func recountMemo(s *Snap) int {
	total := 0
	for _, nodes := range memoEntries(s) {
		total += len(nodes)
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for _, tab := range s.ptabs {
		total += partnerSlotCost * tab.n
		for i := 0; i < tab.n; i++ {
			if l := tab.slots.load(i); l != nil {
				total += int(l.cost())
			}
		}
	}
	return total
}
