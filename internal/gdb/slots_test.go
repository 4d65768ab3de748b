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

// readSome reads, through s's decoded read path, the partners of a few
// random nodes.
func readSome(t testing.TB, s *Snap, rng *rand.Rand) {
	r := s.Reader()
	nl := s.g.Labels().Len()
	for range 20 {
		x, y := graph.Label(rng.Intn(nl)), graph.Label(rng.Intn(nl))
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

// sharedChunks counts the chunks two epochs' decoded indexes and partner
// tables share by pointer.
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
	n := 0
	for i := range a.codes {
		if a.codes[i] == b.codes[i] {
			n++
		}
		if a.clusters[i] == b.clusters[i] {
			n++
		}
	}
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
// epoch lands in the partner-table chunks of others too; afterwards,
// everything each pinned epoch's read path holds, its decoded index
// included, must equal a cold recomputation on that epoch's own trees.
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
	// A fill through the newest epoch into a partner-table chunk the one
	// before shares shows up in both recounts.
	a, b := pinned[len(pinned)-2], pinned[len(pinned)-1]
	for k, tb := range b.ptabs {
		ta := a.ptabs[k]
		if ta == nil {
			continue
		}
		for i, v := range g.Extent(tb.bound) {
			c := tb.slots.chunks[i>>chunkBits].Load()
			if c == nil || c != ta.slots.chunks[i>>chunkBits].Load() || tb.slots.load(i) != nil {
				continue
			}
			p, err := b.Reader().Partners(k.x, k.y, k.forward)
			if err != nil {
				t.Fatal(err)
			}
			beforeA, beforeB := a.DecodedMemoNodes(), b.DecodedMemoNodes()
			if _, err := p.Of(v); err != nil {
				t.Fatal(err)
			}
			cost := int(tb.cost(tb.slots.load(i)))
			if cost == 0 {
				continue // v joins nothing: the fill charges no list
			}
			if da, db := a.DecodedMemoNodes()-beforeA, b.DecodedMemoNodes()-beforeB; da != cost || db != cost {
				t.Fatalf("filling node %d's slot of table %+v through the newer epoch moved the charges by %d and %d, want %d", v, k, da, db, cost)
			}
			return
		}
	}
	t.Fatal("no empty slot in a partner-table chunk the last two epochs share; the test proves nothing")
}

// recountMemo sums what s's partner tables hold by walking every slot
// their directories reach: each table's slots plus the lists they point to.
func recountMemo(s *Snap) int {
	total := 0
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for _, tab := range s.ptabs {
		total += partnerSlotCost * tab.n
		for i := 0; i < tab.n; i++ {
			if l := tab.slots.load(i); l != nil {
				total += int(tab.cost(l))
			}
		}
	}
	return total
}

// chunkPtrs returns a's chunk pointers, nil where none is allocated.
func chunkPtrs[T any](a *slotArray[T]) []any {
	out := make([]any, len(a.chunks))
	for i := range a.chunks {
		if c := a.chunks[i].Load(); c != nil {
			out[i] = c
		}
	}
	return out
}
