package workload

import (
	"testing"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/xmark"
)

func TestShapes(t *testing.T) {
	for _, w := range Paths() {
		if !w.Pattern.IsPath() {
			t.Errorf("%s is not a path: %s", w.Name, w.Pattern)
		}
	}
	for _, w := range Trees() {
		if !w.Pattern.IsTree() {
			t.Errorf("%s is not a tree: %s", w.Name, w.Pattern)
		}
	}
	for _, battery := range []struct {
		name  string
		ws    []Workload
		nodes int
		edges int
	}{
		{"Graphs4A", Graphs4A(), 4, 3},
		{"Graphs4B", Graphs4B(), 4, 4},
		{"Graphs5A", Graphs5A(), 5, 4},
		{"Graphs5B", Graphs5B(), 5, 5},
	} {
		if len(battery.ws) != 5 {
			t.Errorf("%s has %d patterns, want 5", battery.name, len(battery.ws))
		}
		for _, w := range battery.ws {
			if w.Pattern.NumNodes() != battery.nodes {
				t.Errorf("%s %s has %d nodes, want %d", battery.name, w.Name, w.Pattern.NumNodes(), battery.nodes)
			}
			if w.Pattern.NumEdges() != battery.edges {
				t.Errorf("%s %s has %d edges, want %d", battery.name, w.Name, w.Pattern.NumEdges(), battery.edges)
			}
		}
	}
	for _, w := range Cyclic() {
		if w.Pattern.NumEdges() < w.Pattern.NumNodes() {
			t.Errorf("%s is acyclic (%d nodes, %d edges): %s — the cyclic battery needs a cycle",
				w.Name, w.Pattern.NumNodes(), w.Pattern.NumEdges(), w.Pattern)
		}
	}
	if len(Paths()) != 9 || len(Trees()) != 9 {
		t.Fatal("workload counts off (want 9 paths, 9 trees)")
	}
	// Path node counts: three each of 3, 4, 5 nodes.
	counts := map[int]int{}
	for _, w := range Paths() {
		counts[w.Pattern.NumNodes()]++
	}
	if counts[3] != 3 || counts[4] != 3 || counts[5] != 3 {
		t.Fatalf("path sizes = %v, want 3 each of 3/4/5", counts)
	}
}

// TestAllNonEmptyOnXMark: every workload must produce at least one match on
// a generated dataset — otherwise the benchmarks would measure nothing.
func TestAllNonEmptyOnXMark(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 1})
	db, err := gdb.Build(d.Graph, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, w := range All() {
		res, err := exec.Query(db, w.Pattern, exec.DPS)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if res.Len() == 0 {
			t.Errorf("%s: empty result on XMark data (%s)", w.Name, w.Pattern)
		}
	}
}

// TestPathsTreesNonEmptyOnDAG: the Figure 5 workloads must be non-empty on
// the DAG datasets TSD runs on.
func TestPathsTreesNonEmptyOnDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := xmark.Generate(xmark.Config{Nodes: 16000, Seed: 2, DAG: true})
	db, err := gdb.Build(d.Graph, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, set := range [][]Workload{Paths(), Trees()} {
		for _, w := range set {
			res, err := exec.Query(db, w.Pattern, exec.DPS)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			if res.Len() == 0 {
				t.Errorf("%s: empty result on DAG data (%s)", w.Name, w.Pattern)
			}
		}
	}
}
