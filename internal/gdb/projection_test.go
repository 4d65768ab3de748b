package gdb

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// labelings are the two stored labelings the publish-exactness harnesses
// run on. "twohop" is the cover Build computes; "pll" is a valid cover in
// another landmark order, which Build would not compute. That is the
// position of a database written by the retired pll backend, whose subtest
// name it keeps: Open reattaches such a file and maintains its codes.
var labelings = []struct {
	name string
	opt  twohop.Options
}{
	{"twohop", twohop.Options{}},
	{"pll", twohop.Options{Order: twohop.OrderRandom, Seed: 1}},
}

// buildLabeled is mustBuild over the cover of g that opt computes.
func buildLabeled(t testing.TB, g *graph.Graph, opt twohop.Options) *DB {
	t.Helper()
	db, err := BuildFromIndex(g, twohop.Compute(g, opt), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// warmProjections memoizes both projections of every label pair on s.
func warmProjections(t testing.TB, s *Snap) {
	t.Helper()
	nl := s.g.Labels().Len()
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			if _, err := s.ProjectFrom(x, y); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ProjectTo(x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkProjections compares every projection set s has memoized — members
// and member count — with a full recomputation on a cold view of the same
// trees, and returns how many sets it compared.
func checkProjections(t testing.TB, s *Snap, what string) int {
	t.Helper()
	cold := coldView(t, s)
	s.statMu.Lock()
	from, to := maps.Clone(s.projFrom), maps.Clone(s.projTo)
	s.statMu.Unlock()
	check := func(memo map[wKey]*RankSet, forward bool, project func(x, y graph.Label) (*RankSet, error)) {
		for k, got := range memo {
			want, err := project(k.x, k.y)
			if err != nil {
				t.Fatal(err)
			}
			side, name := k.x, "X"
			if !forward {
				side, name = k.y, "Y"
			}
			g, w := members(s, got, side), members(cold, want, side)
			if !slices.Equal(g, w) || got.Len() != len(g) || want.Len() != len(w) {
				t.Fatalf("%s: memoized π_%s(%d→%d) = %v (%d members), recomputed %v (%d)",
					what, name, k.x, k.y, g, got.Len(), w, want.Len())
			}
		}
	}
	check(from, true, cold.ProjectFrom)
	check(to, false, cold.ProjectTo)
	return len(from) + len(to)
}

// members returns the nodes of label l in set, a set over l on s, in
// ascending order.
func members(s *Snap, set *RankSet, l graph.Label) []graph.NodeID {
	return set.FilterTo(s.Ranks(), nil, s.g.Extent(l))
}

// coldView returns a snapshot over s's trees with empty caches and its
// decoded index decoded afresh from them, as Open does: the reference every
// inherited or memoized structure of s is compared with.
func coldView(t testing.TB, s *Snap) *Snap {
	t.Helper()
	cold := s.db.newSnap(s.g)
	cold.base, cold.wtable, cold.cluster = s.base, s.wtable, s.cluster
	cold.coverSize = s.coverSize
	if err := cold.decode(); err != nil {
		t.Fatal(err)
	}
	return cold
}

// mixedOp applies one step of the random insert/delete stream the
// exactness tests drive — delete the drawn edge if present, else insert it
// or (half the time, to keep the graph sparse) delete u's first edge — and
// checks it published exactly one epoch. It returns the graph after the
// step and how many centers were born and died.
func mixedOp(t *testing.T, db *DB, rng *rand.Rand, cur *graph.Graph, step int) (next *graph.Graph, births, deaths int) {
	t.Helper()
	n := cur.NumNodes()
	u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
	del := slices.Contains(cur.Successors(u), v)
	if !del && rng.Intn(2) == 0 {
		if succ := cur.Successors(u); len(succ) > 0 {
			v, del = succ[0], true
		}
	}
	epoch := db.EpochStats().Current
	if del {
		st, err := db.ApplyEdgeDelete(u, v)
		if err != nil {
			t.Fatalf("step %d delete %d->%d: %v", step, u, v, err)
		}
		next, births, deaths = cur.WithoutEdge(u, v), st.NewCenters, st.DroppedCenters
	} else {
		st, err := db.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatalf("step %d insert %d->%d: %v", step, u, v, err)
		}
		next = cur.WithEdge(u, v)
		if st.NewCenter {
			births = 1
		}
	}
	if got := db.EpochStats().Current; got != epoch+1 {
		t.Fatalf("step %d: epoch %d -> %d, want one publish", step, epoch, got)
	}
	return next, births, deaths
}

// wRowMoves counts the W rows that emptied and that were created between
// two wRowSizes results.
func wRowMoves(before, now map[wKey]int) (emptied, created int) {
	for k, b := range before {
		switch {
		case b > 0 && now[k] == 0:
			emptied++
		case b == 0 && now[k] > 0:
			created++
		}
	}
	return emptied, created
}

// wRowSizes returns |W(X, Y)| for every label pair of s.
func wRowSizes(t testing.TB, s *Snap) map[wKey]int {
	t.Helper()
	nl := s.g.Labels().Len()
	sizes := make(map[wKey]int, nl*nl)
	for x := graph.Label(0); int(x) < nl; x++ {
		for y := graph.Label(0); int(y) < nl; y++ {
			ws, err := s.Centers(x, y)
			if err != nil {
				t.Fatal(err)
			}
			sizes[wKey{x, y}] = len(ws)
		}
	}
	return sizes
}

// TestProjectionsExactAfterEveryPublish: the projection sets a successor
// epoch inherits equal a cold recomputation after every publish of a mixed
// insert/delete stream — on both labelings, through center births
// and deaths, W rows that empty and rows that are created — and the stream
// never pays a full scan for them. A batch that changes nothing publishes
// nothing; a batch that fails midway publishes an exact applied prefix.
func TestProjectionsExactAfterEveryPublish(t *testing.T) {
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			const n, labels = 36, 6
			g := randomGraph(5, n, 30, labels)
			db := buildLabeled(t, g, l.opt)
			first, release := db.Pin()
			warmProjections(t, first)
			rows := wRowSizes(t, first)
			release()
			sets := 2 * labels * labels

			rng := rand.New(rand.NewSource(17))
			cur := g
			var births, deaths, emptied, created int
			for step := 0; step < 200; step++ {
				scans, _, _ := db.ProjectionStats()
				next, b, d := mixedOp(t, db, rng, cur, step)
				cur, births, deaths = next, births+b, deaths+d
				if after, _, _ := db.ProjectionStats(); after != scans {
					t.Fatalf("step %d: the publish ran %d full projection scans", step, after-scans)
				}
				s, release := db.Pin()
				if got := checkProjections(t, s, "after publish"); got != sets {
					t.Fatalf("step %d: successor holds %d projection sets, want %d inherited", step, got, sets)
				}
				now := wRowSizes(t, s)
				release()
				e, c := wRowMoves(rows, now)
				emptied, created, rows = emptied+e, created+c, now
			}
			checkIndexConsistent(t, db, cur)
			_, inherited, patched := db.ProjectionStats()
			if inherited != int64(200*sets) || patched == 0 {
				t.Fatalf("inherited %d sets (want %d), patched %d (want > 0)", inherited, 200*sets, patched)
			}
			if births == 0 || deaths == 0 || emptied == 0 || created == 0 {
				t.Fatalf("stream covered %d center births, %d deaths, %d W rows emptied, %d created; want all > 0",
					births, deaths, emptied, created)
			}

			// A batch of duplicates (or of missing edges) publishes nothing.
			var present [2]graph.NodeID
			for u := graph.NodeID(0); ; u++ {
				if succ := cur.Successors(u); len(succ) > 0 {
					present = [2]graph.NodeID{u, succ[0]}
					break
				}
			}
			u, v := freshEdge(t, cur)
			epoch := db.EpochStats().Current
			if _, err := db.ApplyEdgeInserts([][2]graph.NodeID{present, present}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ApplyEdgeDeletes([][2]graph.NodeID{{u, v}, {u, v}}); err != nil {
				t.Fatal(err)
			}
			if got := db.EpochStats().Current; got != epoch {
				t.Fatalf("no-op batches published epoch %d -> %d", epoch, got)
			}

			// A batch that fails midway still publishes its applied prefix.
			bad := [2]graph.NodeID{0, graph.NodeID(n)}
			if _, err := db.ApplyEdgeInserts([][2]graph.NodeID{{u, v}, bad, present}); !errors.Is(err, ErrBadInsert) {
				t.Fatalf("insert batch with an out-of-range edge: err = %v", err)
			}
			if _, err := db.ApplyEdgeDeletes([][2]graph.NodeID{present, bad, {u, v}}); !errors.Is(err, ErrBadDelete) {
				t.Fatalf("delete batch with an out-of-range edge: err = %v", err)
			}
			if got := db.EpochStats().Current; got != epoch+2 {
				t.Fatalf("failed batches published %d epochs, want 2", got-epoch)
			}
			s, release := db.Pin()
			defer release()
			if got := checkProjections(t, s, "after failed batches"); got != sets {
				t.Fatalf("after failed batches: %d projection sets, want %d", got, sets)
			}
			checkIndexConsistent(t, db, cur.WithEdge(u, v).WithoutEdge(present[0], present[1]))
		})
	}
}

// TestSuccessorInheritsProjections: after a warm epoch, a publish followed
// by the same projection reads performs no full scan — the successor serves
// inherited sets, exact for the new epoch — while a reader still pinned to
// the old epoch keeps the sets it memoized.
func TestSuccessorInheritsProjections(t *testing.T) {
	g := randomGraph(14, 40, 70, 3)
	db := mustBuild(t, g, Options{})
	old, releaseOld := db.Pin()
	defer releaseOld()
	warmProjections(t, old)
	before := make(map[wKey][]graph.NodeID, len(old.projFrom))
	for k, p := range old.projFrom {
		before[k] = members(old, p, k.x)
	}
	warmScans, _, _ := db.ProjectionStats()
	if want := int64(2 * len(before)); warmScans != want {
		t.Fatalf("warming ran %d scans, want %d", warmScans, want)
	}

	cur := g
	for grew := false; !grew; {
		u, v := freshEdge(t, cur)
		st, err := db.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.WithEdge(u, v)
		grew = st.LabelEntries > 0
	}

	next, releaseNext := db.Pin()
	defer releaseNext()
	if next.Epoch() == old.Epoch() {
		t.Fatal("inserts published no epoch")
	}
	warmProjections(t, next)
	if scans, _, _ := db.ProjectionStats(); scans != warmScans {
		t.Fatalf("successor epoch ran %d full projection scans, want 0", scans-warmScans)
	}
	checkProjections(t, next, "inherited")
	checkProjections(t, old, "old epoch")
	for k, pre := range before {
		if got, _ := old.ProjectFrom(k.x, k.y); !slices.Equal(members(old, got, k.x), pre) || got.Len() != len(pre) {
			t.Fatalf("old epoch's π_X(%d→%d) changed under a pinned reader: %v -> %v", k.x, k.y, pre, members(old, got, k.x))
		}
	}
}
