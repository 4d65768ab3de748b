package gdb_test

// The pruned-landmark-labeling ("pll") reachability backend was removed
// when the engine kept one labeling, twohop.Compute. Databases that backend
// wrote still open and keep working, because gdb.Open resumes from the
// stored codes, which are a valid 2-hop labeling whatever computed them.
// These tests hold that promise on files the pll backend wrote.

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
)

// The databases under testdata/pll were written by the pll backend before its
// removal, with gdb.Build(g, gdb.Options{Path: path, ReachIndex: "pll"})
// on the graphs below. Each page file is gzipped; each manifest still
// carries "reach_backend": "pll". want is the labeling summary the backend
// reported for the graph (its Index.Stats).
var pllFixtures = []struct {
	name  string
	graph func() *graph.Graph
	want  pllStats
}{
	{"cyclic", func() *graph.Graph { return pllRandomGraph(1, 120, 360, 3) },
		pllStats{Nodes: 120, Edges: 360, Components: 15, Size: 225, MaxIn: 2, MaxOut: 2}},
	{"sparse", func() *graph.Graph { return pllRandomGraph(2, 150, 170, 4) },
		pllStats{Nodes: 150, Edges: 170, Components: 145, Size: 332, MaxIn: 7, MaxOut: 8}},
	{"chain", func() *graph.Graph { return pllChainGraph(40) },
		pllStats{Nodes: 40, Edges: 39, Components: 40, Size: 742, MaxIn: 38, MaxOut: 1}},
}

type pllStats struct {
	Nodes, Edges, Components, Size, MaxIn, MaxOut int
}

func pllRandomGraph(seed int64, n, m, nlabels int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	labels := make([]graph.Label, nlabels)
	for i := range labels {
		labels[i] = b.Intern(string(rune('A' + i)))
	}
	for i := 0; i < n; i++ {
		b.AddNodeLabel(labels[rng.Intn(nlabels)])
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.Build()
}

func pllChainGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	l := b.Intern("A")
	for i := 0; i < n; i++ {
		b.AddNodeLabel(l)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// unpackPLL copies fixture name into a fresh directory and returns the path
// of its page file.
func unpackPLL(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "pll", name+".fdb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join("testdata", "pll", name+".fdb.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".fdb")
	if err := os.WriteFile(path, page, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".manifest", man, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openPLLFixture opens fixture name and checks that it holds the graph the
// file was built from.
func openPLLFixture(t *testing.T, name string, want *graph.Graph) *gdb.DB {
	t.Helper()
	db, err := gdb.Open(unpackPLL(t, name), gdb.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Cleanup(func() { db.Close() })
	g := db.Graph()
	if g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: |V|=%d |E|=%d, built from |V|=%d |E|=%d", name, g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Labels().Name(g.LabelOf(v)) != want.Labels().Name(want.LabelOf(v)) ||
			!reflect.DeepEqual(g.Successors(v), want.Successors(v)) {
			t.Fatalf("%s: node %d differs from the graph the file was built from", name, v)
		}
	}
	return db
}

func pllReaches(t *testing.T, db *gdb.DB, u, v graph.NodeID) bool {
	t.Helper()
	ok, err := db.Reaches(u, v)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestPLLFileVerifyAgainstBFS: a database the pll backend wrote answers Reaches
// like BFS on every pair, on a cycle-heavy graph, a sparse one and a chain,
// and at least one of them stores a labeling whose size differs from the
// cover gdb.Build computes.
func TestPLLFileVerifyAgainstBFS(t *testing.T) {
	foreign := 0
	for _, fx := range pllFixtures {
		g := fx.graph()
		db := openPLLFixture(t, fx.name, g)
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			truth := graph.ReachableFrom(g, u)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if got := pllReaches(t, db, u, v); got != truth[v] {
					t.Fatalf("%s: Reaches(%d,%d)=%v, BFS %v", fx.name, u, v, got, truth[v])
				}
			}
		}
		if db.CoverSize() != twohop.Compute(g, twohop.Options{}).Size() {
			foreign++
		}
	}
	if foreign == 0 {
		t.Fatal("every fixture stores a cover the size of gdb.Build's; the test would not tell a pll-written file apart")
	}
}

// TestPLLFileRebuildDeterministic checks that rebuilding the labeling of a
// pll-written graph is deterministic (two builds agree entry for entry),
// verifies against BFS, and answers Reaches exactly as the stored pll
// labeling does.
func TestPLLFileRebuildDeterministic(t *testing.T) {
	fx := pllFixtures[0]
	g := fx.graph()
	db := openPLLFixture(t, fx.name, g)
	a := twohop.Compute(g, twohop.Options{})
	b := twohop.Compute(g, twohop.Options{})
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !reflect.DeepEqual(a.In(v), b.In(v)) || !reflect.DeepEqual(a.Out(v), b.Out(v)) {
			t.Fatalf("two builds disagree at node %d", v)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if a.Reaches(u, v) != pllReaches(t, db, u, v) {
				t.Fatalf("Reaches(%d,%d) differs from the pll labeling", u, v)
			}
		}
	}
}

// TestPLLFileStats: the labeling read back from a pll-written database has the
// size and list maxima the backend reported when it wrote the file, and the
// persisted cover size agrees with the stored codes.
func TestPLLFileStats(t *testing.T) {
	for _, fx := range pllFixtures {
		g := fx.graph()
		db := openPLLFixture(t, fx.name, g)
		got := pllStats{
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			Components: graph.NewSCC(g).NumComponents(),
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			in, err := db.InCode(v)
			if err != nil {
				t.Fatal(err)
			}
			out, err := db.OutCode(v)
			if err != nil {
				t.Fatal(err)
			}
			// Full codes carry the node itself; the reported counts do not.
			got.Size += len(in) - 1 + len(out) - 1
			got.MaxIn = max(got.MaxIn, len(in)-1)
			got.MaxOut = max(got.MaxOut, len(out)-1)
		}
		if got != fx.want {
			t.Fatalf("%s: read back %+v, the pll backend reported %+v", fx.name, got, fx.want)
		}
		if db.CoverSize() != got.Size {
			t.Fatalf("%s: CoverSize %d, stored codes hold %d entries", fx.name, db.CoverSize(), got.Size)
		}
		st := twohop.Compute(g, twohop.Options{}).Stats()
		if st.Nodes != got.Nodes || st.Edges != got.Edges || st.Components != got.Components {
			t.Fatalf("%s: the rebuilt cover sees %v, the file %+v", fx.name, st, got)
		}
	}
}

// TestPLLFilePersistOpenPersistByteStable: a database the pll backend wrote
// opens, and re-persisting it leaves the page file byte-identical; the
// manifest loses only its "reach_backend" key. A second open→persist
// leaves both files byte-identical.
func TestPLLFilePersistOpenPersistByteStable(t *testing.T) {
	path := unpackPLL(t, "cyclic")
	page0, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man0, err := os.ReadFile(path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}

	cycle := func() (page, man []byte) {
		t.Helper()
		db, err := gdb.Open(path, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if page, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if man, err = os.ReadFile(path + ".manifest"); err != nil {
			t.Fatal(err)
		}
		return page, man
	}

	page1, man1 := cycle()
	if !reflect.DeepEqual(page0, page1) {
		t.Fatal("page file changed across open→persist")
	}
	var want, got map[string]any
	if err := json.Unmarshal(man0, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(man1, &got); err != nil {
		t.Fatal(err)
	}
	if want["reach_backend"] != "pll" {
		t.Fatalf("fixture manifest names backend %v", want["reach_backend"])
	}
	delete(want, "reach_backend")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("manifest changed beyond reach_backend across open→persist:\n%s\nvs\n%s", man0, man1)
	}

	page2, man2 := cycle()
	if !reflect.DeepEqual(page1, page2) {
		t.Fatal("page file changed across persist→open→persist")
	}
	if !reflect.DeepEqual(man1, man2) {
		t.Fatalf("manifest changed across persist→open→persist:\n%s\nvs\n%s", man1, man2)
	}
}
