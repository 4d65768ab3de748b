package gdb

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"fastmatch/internal/graph"
)

// checkIndexConsistent verifies the full cluster-index contract against
// ground-truth BFS on g: Reaches from codes, subcluster label/reachability
// semantics, and W-table completeness (for every pair x ≠ y, x ⇝ y iff
// some center w ∈ W(label(x), label(y)) has x ∈ F and y ∈ T).
func checkIndexConsistent(t *testing.T, db *DB, g *graph.Graph) {
	t.Helper()
	n := g.NumNodes()
	for u := graph.NodeID(0); int(u) < n; u++ {
		for v := graph.NodeID(0); int(v) < n; v++ {
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
	for w := graph.NodeID(0); int(w) < n; w++ {
		for l := graph.Label(0); int(l) < g.Labels().Len(); l++ {
			f, err := db.GetF(w, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range f {
				if g.LabelOf(u) != l || !graph.Reaches(g, u, w) {
					t.Fatalf("bad F-subcluster member %d of center %d label %d", u, w, l)
				}
			}
			tt, err := db.GetT(w, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tt {
				if g.LabelOf(v) != l || !graph.Reaches(g, w, v) {
					t.Fatalf("bad T-subcluster member %d of center %d label %d", v, w, l)
				}
			}
		}
	}
	for x := graph.NodeID(0); int(x) < n; x++ {
		for y := graph.NodeID(0); int(y) < n; y++ {
			if x == y {
				continue
			}
			lx, ly := g.LabelOf(x), g.LabelOf(y)
			ws, err := db.Centers(lx, ly)
			if err != nil {
				t.Fatal(err)
			}
			covered := false
			for _, w := range ws {
				f, err := db.GetF(w, lx)
				if err != nil {
					t.Fatal(err)
				}
				tt, err := db.GetT(w, ly)
				if err != nil {
					t.Fatal(err)
				}
				if containsNode(f, x) && containsNode(tt, y) {
					covered = true
					break
				}
			}
			if covered != graph.Reaches(g, x, y) {
				t.Fatalf("W-table covers (%d,%d) = %v, reachability = %v", x, y, covered, graph.Reaches(g, x, y))
			}
		}
	}
}

// TestApplyEdgeInsertMaintainsIndex: a stream of random inserts must keep
// every persistent structure equivalent to ground truth, checked
// periodically with the full consistency sweep.
func TestApplyEdgeInsertMaintainsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 24
	g := randomGraph(7, n, 36, 3)
	db := mustBuild(t, g, Options{})
	cur := g
	for step := 0; step < 40; step++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		st, err := db.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatalf("step %d insert %d->%d: %v", step, u, v, err)
		}
		if !st.Duplicate {
			cur = cur.WithEdge(u, v)
		}
		if db.Graph().NumEdges() != cur.NumEdges() {
			t.Fatalf("step %d: db graph has %d edges, want %d", step, db.Graph().NumEdges(), cur.NumEdges())
		}
		if step%8 == 7 {
			checkIndexConsistent(t, db, cur)
		}
	}
	checkIndexConsistent(t, db, cur)
}

func TestApplyEdgeInsertDuplicateAndRange(t *testing.T) {
	g, ids := figure1Graph()
	db := mustBuild(t, g, Options{})
	st, err := db.ApplyEdgeInsert(ids["a0"], ids["b3"]) // exists in Figure 1
	if err != nil {
		t.Fatal(err)
	}
	if !st.Duplicate || st.LabelEntries != 0 {
		t.Fatalf("duplicate insert reported %+v", st)
	}
	if _, err := db.ApplyEdgeInsert(0, graph.NodeID(g.NumNodes())); !errors.Is(err, ErrBadInsert) {
		t.Fatalf("out-of-range insert: err = %v, want ErrBadInsert", err)
	}
	db.Close()
	if _, err := db.ApplyEdgeInsert(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert on closed db: err = %v, want ErrClosed", err)
	}
}

// TestApplyEdgeInsertStats: a cover-extending insert reports its label
// entries and any new center, and CoverSize tracks the growth.
func TestApplyEdgeInsertStats(t *testing.T) {
	g := randomGraph(3, 20, 26, 3)
	db := mustBuild(t, g, Options{})
	before := db.CoverSize()
	total := 0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		st, err := db.ApplyEdgeInsert(graph.NodeID(rng.Intn(20)), graph.NodeID(rng.Intn(20)))
		if err != nil {
			t.Fatal(err)
		}
		total += st.LabelEntries
	}
	if db.CoverSize() != before+total {
		t.Fatalf("CoverSize %d, want %d + %d", db.CoverSize(), before, total)
	}
}

// TestApplyEdgeInsertOnOpenedDB exercises the reconstruction path: the
// labeling is reseeded from the stored base-table codes, with no Cover
// object available.
func TestApplyEdgeInsertOnOpenedDB(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.pages")
	g := randomGraph(19, 20, 30, 3)
	db, err := Build(g, Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rng := rand.New(rand.NewSource(23))
	cur := re.Graph()
	for i := 0; i < 15; i++ {
		u := graph.NodeID(rng.Intn(20))
		v := graph.NodeID(rng.Intn(20))
		st, err := re.ApplyEdgeInsert(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Duplicate {
			cur = cur.WithEdge(u, v)
		}
	}
	checkIndexConsistent(t, re, cur)
	// Sync makes the inserts durable; a reopened database must agree.
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	checkIndexConsistent(t, re2, cur)
}

// TestBaseRecordsFollowLabeling: after every publish of a stream of mixed
// insert and delete batches, each node's base-table record holds its codes
// in the incremental labeling, the epoch's decoded codes hold the same
// (plus the node itself), and the epoch's |H| is the labeling's.
func TestBaseRecordsFollowLabeling(t *testing.T) {
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			const n = 40
			g := randomGraph(9, n, 45, 5)
			db := buildLabeled(t, g, l.opt)
			rng := rand.New(rand.NewSource(31))
			for step := 0; step < 120; step++ {
				cur := db.Graph()
				var batch [][2]graph.NodeID
				if step%2 == 0 {
					for len(batch) < 1+rng.Intn(4) {
						batch = append(batch, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
					}
					if _, err := db.ApplyEdgeInserts(batch); err != nil {
						t.Fatalf("step %d insert %v: %v", step, batch, err)
					}
				} else {
					for len(batch) < 1+rng.Intn(4) {
						u := graph.NodeID(rng.Intn(n))
						if succ := cur.Successors(u); len(succ) > 0 {
							batch = append(batch, [2]graph.NodeID{u, succ[rng.Intn(len(succ))]})
						}
					}
					if _, err := db.ApplyEdgeDeletes(batch); err != nil {
						t.Fatalf("step %d delete %v: %v", step, batch, err)
					}
				}
				checkRecordsMatchLabeling(t, db, step)
			}
		})
	}
}

// checkRecordsMatchLabeling holds the current epoch's base-table records
// and decoded codes against the writer's incremental labeling.
func checkRecordsMatchLabeling(t *testing.T, db *DB, step int) {
	t.Helper()
	s, release := db.Pin()
	defer release()
	if s.CoverSize() != db.inc.Size() {
		t.Fatalf("step %d: epoch |H| %d, labeling %d", step, s.CoverSize(), db.inc.Size())
	}
	for x := graph.NodeID(0); int(x) < s.g.NumNodes(); x++ {
		rec, err := db.codeRecord(s.base, s.g, x)
		if err != nil {
			t.Fatal(err)
		}
		in, out := decodeCodes(rec)
		if !slices.Equal(in, db.inc.In(x)) || !slices.Equal(out, db.inc.Out(x)) {
			t.Fatalf("step %d node %d: record %v/%v, labeling %v/%v", step, x, in, out, db.inc.In(x), db.inc.Out(x))
		}
		fin, fout := s.codesOf(x)
		if !slices.Equal(fin, appendWith(nil, in, x)) || !slices.Equal(fout, appendWith(nil, out, x)) {
			t.Fatalf("step %d node %d: decoded %v/%v, record %v/%v", step, x, fin, fout, in, out)
		}
	}
}
