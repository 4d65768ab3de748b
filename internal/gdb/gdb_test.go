package gdb

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// figure1Graph builds the data graph of Figure 1(a) (as reconstructed in
// internal/graph tests).
func figure1Graph() (*graph.Graph, map[string]graph.NodeID) {
	b := graph.NewBuilder()
	ids := map[string]graph.NodeID{}
	add := func(name, label string) { ids[name] = b.AddNode(label) }
	add("a0", "A")
	for _, n := range []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6"} {
		add(n, "B")
	}
	for _, n := range []string{"c0", "c1", "c2", "c3"} {
		add(n, "C")
	}
	for _, n := range []string{"d0", "d1", "d2", "d3", "d4", "d5"} {
		add(n, "D")
	}
	for _, n := range []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"} {
		add(n, "E")
	}
	edges := [][2]string{
		{"a0", "b3"}, {"a0", "b4"}, {"a0", "b5"}, {"a0", "c0"},
		{"b3", "c2"}, {"b4", "c2"}, {"b5", "c3"}, {"b6", "c3"},
		{"b0", "c1"}, {"b1", "c1"}, {"b2", "c1"}, {"b1", "c3"},
		{"c0", "d0"}, {"c0", "d1"}, {"c0", "e0"},
		{"c1", "d2"}, {"c1", "d3"}, {"c1", "e7"},
		{"c2", "e2"}, {"c3", "d4"}, {"c3", "d5"},
		{"d0", "e0"}, {"d2", "e1"}, {"d4", "e3"}, {"e4", "e5"},
	}
	for _, e := range edges {
		b.AddEdge(ids[e[0]], ids[e[1]])
	}
	return b.Build(), ids
}

func randomGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(nlabels))))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func mustBuild(t testing.TB, g *graph.Graph, opt Options) *DB {
	t.Helper()
	db, err := Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestReachesMatchesGraph(t *testing.T) {
	g, _ := figure1Graph()
	db := mustBuild(t, g, Options{})
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want := graph.Reaches(g, u, v)
			got, err := db.Reaches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// TestClusterSemantics: every member of an F-subcluster reaches the center;
// every member of a T-subcluster is reached from it; and the subclusters
// carry the right label.
func TestClusterSemantics(t *testing.T) {
	g := randomGraph(17, 60, 140, 4)
	db := mustBuild(t, g, Options{})
	for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
		for l := graph.Label(0); int(l) < g.Labels().Len(); l++ {
			f, err := db.GetF(w, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range f {
				if g.LabelOf(u) != l {
					t.Fatalf("F-subcluster(%d,%d) holds node %d of label %d", w, l, u, g.LabelOf(u))
				}
				if !graph.Reaches(g, u, w) {
					t.Fatalf("F-subcluster member %d does not reach center %d", u, w)
				}
			}
			tt, err := db.GetT(w, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tt {
				if g.LabelOf(v) != l {
					t.Fatalf("T-subcluster(%d,%d) holds node %d of wrong label", w, l, v)
				}
				if !graph.Reaches(g, w, v) {
					t.Fatalf("T-subcluster member %d not reached from center %d", v, w)
				}
			}
		}
	}
}

// TestWTableComplete: W(X,Y) together with the clusters covers exactly the
// reachable (x, y) pairs across distinct labels.
func TestWTableComplete(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 30, 60, 3)
		db, err := Build(g, Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		labels := g.Labels()
		for x := graph.Label(0); int(x) < labels.Len(); x++ {
			for y := graph.Label(0); int(y) < labels.Len(); y++ {
				if x == y {
					continue
				}
				// Pairs derivable from the index.
				got := map[[2]graph.NodeID]bool{}
				ws, err := db.Centers(x, y)
				if err != nil {
					return false
				}
				for _, w := range ws {
					f, _ := db.GetF(w, x)
					tt, _ := db.GetT(w, y)
					for _, u := range f {
						for _, v := range tt {
							got[[2]graph.NodeID{u, v}] = true
						}
					}
				}
				// Ground truth.
				for _, u := range g.Extent(x) {
					for _, v := range g.Extent(y) {
						want := graph.Reaches(g, u, v)
						if got[[2]graph.NodeID{u, v}] != want {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestGetCentersSemijoinExact: out(x) ∩ W(X,Y) ≠ ∅ iff x reaches some
// Y-labeled node (Eq. 6 is an exact filter).
func TestGetCentersSemijoinExact(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed^0x77, 25, 55, 3)
		db, err := Build(g, Options{})
		if err != nil {
			return false
		}
		defer db.Close()
		for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
			for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
				if x == y {
					continue
				}
				ws, err := db.Centers(x, y)
				if err != nil {
					return false
				}
				for _, u := range g.Extent(x) {
					out, err := db.OutCode(u)
					if err != nil {
						return false
					}
					pass := IntersectNonEmpty(out, ws)
					want := false
					for _, v := range g.Extent(y) {
						if graph.Reaches(g, u, v) {
							want = true
							break
						}
					}
					if pass != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCodesIncludeSelfAndSorted(t *testing.T) {
	g, ids := figure1Graph()
	db := mustBuild(t, g, Options{})
	for _, v := range []graph.NodeID{ids["a0"], ids["c1"], ids["e7"]} {
		in, err := db.InCode(v)
		if err != nil {
			t.Fatal(err)
		}
		out, err := db.OutCode(v)
		if err != nil {
			t.Fatal(err)
		}
		if !containsNode(in, v) || !containsNode(out, v) {
			t.Fatalf("codes of %d missing self", v)
		}
		for i := 1; i < len(in); i++ {
			if in[i-1] >= in[i] {
				t.Fatalf("InCode(%d) not sorted: %v", v, in)
			}
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				t.Fatalf("OutCode(%d) not sorted: %v", v, out)
			}
		}
	}
}

func containsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestJoinSizeUpperBound(t *testing.T) {
	g := randomGraph(3, 40, 90, 3)
	db := mustBuild(t, g, Options{})
	for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
		for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
			if x == y {
				continue
			}
			est, err := db.JoinSize(x, y)
			if err != nil {
				t.Fatal(err)
			}
			exact := int64(0)
			for _, u := range g.Extent(x) {
				for _, v := range g.Extent(y) {
					if graph.Reaches(g, u, v) {
						exact++
					}
				}
			}
			if est < exact {
				t.Fatalf("JoinSize(%d,%d) = %d below exact %d", x, y, est, exact)
			}
			// Memoized second call must agree.
			est2, _ := db.JoinSize(x, y)
			if est2 != est {
				t.Fatal("memoized JoinSize differs")
			}
		}
	}
}

func TestFileBackedDB(t *testing.T) {
	g, ids := figure1Graph()
	path := filepath.Join(t.TempDir(), "gdb.pages")
	db := mustBuild(t, g, Options{Path: path, PoolBytes: 16 * 4096})
	ok, err := db.Reaches(ids["a0"], ids["e2"])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a0 should reach e2")
	}
	if db.IOStats().Logical() == 0 {
		t.Fatal("expected counted I/O")
	}
}

// TestIOAccountingAndCaches: the pool-reading reads (W-table probes,
// GetOut/GetIn) touch pages on every call, and the decoded codes touch none.
func TestIOAccountingAndCaches(t *testing.T) {
	g, _ := figure1Graph()
	db := mustBuild(t, g, Options{})
	db.ResetIOStats()
	db.ClearCaches()

	a := g.Labels().Lookup("A")
	bLbl := g.Labels().Lookup("B")
	if _, err := db.Centers(a, bLbl); err != nil {
		t.Fatal(err)
	}
	if db.IOStats().Logical() == 0 {
		t.Fatal("a W-table probe should touch pages")
	}

	s, release := db.Pin()
	defer release()
	io1 := db.IOStats().Logical()
	for range 2 {
		if _, err := s.OutCode(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reaches(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if db.IOStats().Logical() != io1 {
		t.Fatal("a decoded code read should not touch pages")
	}
	for range 2 {
		before := db.IOStats().Logical()
		got, err := s.GetOut(0)
		if err != nil {
			t.Fatal(err)
		}
		if db.IOStats().Logical() == before {
			t.Fatal("GetOut should read its base-table record through the pool on every call")
		}
		if want, _ := s.OutCode(0); !slices.Equal(got, want) {
			t.Fatalf("GetOut(0) = %v, OutCode(0) = %v", got, want)
		}
	}
}

func TestCentersEmptyPair(t *testing.T) {
	// Two disconnected labels: W must be empty.
	b := graph.NewBuilder()
	b.AddNode("X")
	b.AddNode("Y")
	g := b.Build()
	db := mustBuild(t, g, Options{})
	ws, err := db.Centers(g.Labels().Lookup("X"), g.Labels().Lookup("Y"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 {
		t.Fatalf("W(X,Y) = %v, want empty", ws)
	}
}

func TestIntersectHelpers(t *testing.T) {
	a := []graph.NodeID{1, 3, 5, 7}
	b := []graph.NodeID{2, 3, 6, 7, 9}
	if !IntersectNonEmpty(a, b) {
		t.Fatal("should intersect")
	}
	got := Intersect(a, b)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("Intersect = %v", got)
	}
	if IntersectNonEmpty([]graph.NodeID{1, 2}, []graph.NodeID{3, 4}) {
		t.Fatal("disjoint slices reported intersecting")
	}
	if Intersect(nil, a) != nil {
		t.Fatal("nil ∩ a should be nil")
	}
}

func TestBuildFromIndexSharesIndex(t *testing.T) {
	g, _ := figure1Graph()
	cover := twohop.Compute(g, twohop.Options{})
	db, err := BuildFromIndex(g, cover, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Index() != cover {
		t.Fatal("DB should retain the provided cover")
	}
	if db.NumCenters() == 0 {
		t.Fatal("expected some centers")
	}
}

func BenchmarkBuildDB(b *testing.B) {
	g := randomGraph(1, 5000, 9000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Build(g, Options{})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

func BenchmarkReachesViaCodes(b *testing.B) {
	g := randomGraph(2, 5000, 9000, 8)
	db, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if _, err := db.Reaches(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistinctFromTo: the distinct-side statistics equal exact counts.
func TestDistinctFromTo(t *testing.T) {
	g := randomGraph(23, 50, 110, 4)
	db := mustBuild(t, g, Options{})
	for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
		for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
			if x == y {
				continue
			}
			df, err := db.DistinctFrom(x, y)
			if err != nil {
				t.Fatal(err)
			}
			dt, err := db.DistinctTo(x, y)
			if err != nil {
				t.Fatal(err)
			}
			var wantDF, wantDT int64
			for _, u := range g.Extent(x) {
				for _, v := range g.Extent(y) {
					if graph.Reaches(g, u, v) {
						wantDF++
						break
					}
				}
			}
			for _, v := range g.Extent(y) {
				for _, u := range g.Extent(x) {
					if graph.Reaches(g, u, v) {
						wantDT++
						break
					}
				}
			}
			if df != wantDF || dt != wantDT {
				t.Fatalf("distinct(%d,%d) = (%d,%d), want (%d,%d)", x, y, df, dt, wantDF, wantDT)
			}
			// Memoized second call.
			df2, _ := db.DistinctFrom(x, y)
			dt2, _ := db.DistinctTo(x, y)
			if df2 != df || dt2 != dt {
				t.Fatal("memoized distinct counts differ")
			}
		}
	}
}

func TestSizeBytesAndResize(t *testing.T) {
	g := randomGraph(24, 200, 400, 4)
	db := mustBuild(t, g, Options{})
	if db.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	if err := db.ResizePool(64 << 10); err != nil {
		t.Fatal(err)
	}
	// Queries still work after the shrink.
	ok, err := db.Reaches(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = ok
	if db.Heap() == nil {
		t.Fatal("Heap accessor nil")
	}
}
