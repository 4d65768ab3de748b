package fastmatch_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"fastmatch"
	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
	"fastmatch/internal/twohop"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// The differential harness: an incrementally maintained database
// (ApplyEdgeInsert per edge) must be query-equivalent to a database built
// from scratch over the same mutated graph — identical DP and DPS result
// rows on the paper's pattern workloads, and identical Reaches answers on sampled node pairs. This is the correctness
// story for the whole incremental-maintenance path (label deltas → base
// tables → cluster index → W-table); see DESIGN.md. The seeded runs start
// from each of two stored labelings (labelings): the engine consumes any
// valid labeling through the same delta stream, so each must survive the
// identical battery.

// labelings are the two stored labelings the seeded differential runs
// start from. "twohop" is the cover gdb.Build computes; "pll" is a valid
// cover in another landmark order, which Build would not compute. That is
// the position of a database written by the retired pll backend, whose
// subtest name it keeps: OpenEngine reattaches such a file and maintains
// its codes.
var labelings = []struct {
	name string
	opt  twohop.Options
}{
	{"twohop", twohop.Options{}},
	{"pll", twohop.Options{Order: twohop.OrderRandom, Seed: 1}},
}

// buildLabeled builds a database on the cover of g that opt computes.
func buildLabeled(t testing.TB, g *graph.Graph, opt twohop.Options) *gdb.DB {
	t.Helper()
	db, err := gdb.BuildFromIndex(g, twohop.Compute(g, opt), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// diffWorkloads is the pattern battery both databases answer.
func diffWorkloads() []workload.Workload {
	var ws []workload.Workload
	ws = append(ws, workload.Paths()[:6]...)
	ws = append(ws, workload.Trees()[:3]...)
	ws = append(ws, workload.Graphs5B()[:2]...)
	return ws
}

// planAndRun plans and runs p on one pinned snapshot.
func planAndRun(t testing.TB, db *gdb.DB, p *pattern.Pattern, algo exec.Algorithm) *rjoin.Table {
	t.Helper()
	snap, release := db.Pin()
	defer release()
	plan, err := exec.BuildPlanSnapConfig(snap, p, algo, exec.PlanConfig{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	tab, err := exec.RunSnapConfig(context.Background(), snap, plan, exec.RunConfig{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tab
}

// sortedRows plans and runs p, returning canonically sorted rows.
func sortedRows(t testing.TB, db *gdb.DB, p *pattern.Pattern, algo exec.Algorithm) [][]graph.NodeID {
	t.Helper()
	tab := planAndRun(t, db, p, algo)
	tab.SortRows()
	return tab.Rows
}

// compareDatabases asserts inc (incrementally maintained) and a fresh
// rebuild over g agree on the full battery under DP and DPS, plus sampled
// reachability.
func compareDatabases(t *testing.T, inc *gdb.DB, g *graph.Graph, rng *rand.Rand, tag string) {
	t.Helper()
	rebuilt, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatalf("%s: rebuild: %v", tag, err)
	}
	defer rebuilt.Close()

	for _, w := range diffWorkloads() {
		for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
			got := sortedRows(t, inc, w.Pattern, algo)
			want := sortedRows(t, rebuilt, w.Pattern, algo)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s %s: incremental %d rows, rebuild %d rows",
					tag, w.Name, algo, len(got), len(want))
			}
		}
	}

	// The incrementally maintained fan-signature table must equal a
	// from-scratch recomputation over its own epoch's cluster index: dead
	// centers dropped, zeroed pairs deleted, fan masses exact. (The
	// rebuilt database's table is NOT a valid oracle — the signature
	// summarizes the index structure, and an incrementally repaired 2-hop
	// cover legitimately differs from a fresh one in redundant-but-sound
	// entries.) Both databases are held to the same invariant.
	for _, c := range []struct {
		name string
		db   *gdb.DB
	}{{"incremental", inc}, {"rebuilt", rebuilt}} {
		snap, release := c.db.Pin()
		sig := snap.Signature()
		if sig == nil {
			release()
			t.Fatalf("%s: %s snapshot lost its fan signature", tag, c.name)
		}
		oracle, err := snap.ComputeSignature()
		if err != nil {
			release()
			t.Fatalf("%s: %s ComputeSignature: %v", tag, c.name, err)
		}
		release()
		if !sig.Equal(oracle) {
			t.Fatalf("%s: %s maintained signature (%d pairs) != recomputed (%d pairs)",
				tag, c.name, sig.NumPairs(), oracle.NumPairs())
		}
	}

	n := g.NumNodes()
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		gi, err := inc.Reaches(u, v)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := rebuilt.Reaches(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if gi != gr || gi != graph.Reaches(g, u, v) {
			t.Fatalf("%s: Reaches(%d,%d): incremental %v, rebuild %v, BFS %v",
				tag, u, v, gi, gr, graph.Reaches(g, u, v))
		}
	}
}

// TestDifferentialEdgeInsertsMatchRebuild is the deterministic seeded run:
// ≥200 random edge inserts on an XMark-derived graph, differentially
// tested against from-scratch rebuilds at four checkpoints.
func TestDifferentialEdgeInsertsMatchRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			d := xmark.Generate(xmark.Config{Nodes: 2500, Seed: 11})
			g := d.Graph
			inc := buildLabeled(t, g, l.opt)
			defer inc.Close()

			rng := rand.New(rand.NewSource(101))
			cur := g
			n := g.NumNodes()
			const inserts = 220
			for i := 1; i <= inserts; i++ {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				st, err := inc.ApplyEdgeInsert(u, v)
				if err != nil {
					t.Fatalf("insert %d (%d->%d): %v", i, u, v, err)
				}
				if !st.Duplicate {
					cur = cur.WithEdge(u, v)
				}
				if i%55 == 0 {
					compareDatabases(t, inc, cur, rng, "checkpoint")
				}
			}
		})
	}
}

// TestEngineInsertEdge drives the public API end to end: InsertEdge grows
// query results, reports duplicates, and classifies bad endpoints.
func TestEngineInsertEdge(t *testing.T) {
	b := fastmatch.NewGraphBuilder()
	var as, bs []fastmatch.NodeID
	for i := 0; i < 4; i++ {
		as = append(as, b.AddNode("A"))
	}
	for i := 0; i < 4; i++ {
		bs = append(bs, b.AddNode("B"))
	}
	b.AddEdge(as[0], bs[0])
	eng, err := fastmatch.NewEngine(b.Build(), fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Query("A->B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("seed query: %d rows, want 1", len(res.Rows))
	}
	st, err := eng.InsertEdge(as[1], bs[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicate || st.LabelEntries == 0 {
		t.Fatalf("insert stats %+v", st)
	}
	if ok, err := eng.Reaches(as[1], bs[1]); err != nil || !ok {
		t.Fatalf("Reaches after insert = %v, %v", ok, err)
	}
	res, err = eng.Query("A->B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-insert query: %d rows, want 2", len(res.Rows))
	}
	if st, err := eng.InsertEdge(as[1], bs[1]); err != nil || !st.Duplicate {
		t.Fatalf("duplicate insert: %+v, %v", st, err)
	}
	if _, err := eng.InsertEdge(0, 1000); !errors.Is(err, fastmatch.ErrBadInsert) {
		t.Fatalf("bad endpoint: err = %v, want ErrBadInsert", err)
	}
	if err := eng.Sync(); err != nil { // in-memory: no-op
		t.Fatal(err)
	}
}

// FuzzEdgeInsertDifferential lets the fuzzer choose the insert sequence on
// a small XMark graph: whatever the sequence, the incrementally maintained
// database must agree with a from-scratch rebuild on a pattern query and
// on sampled reachability.
func FuzzEdgeInsertDifferential(f *testing.F) {
	f.Add(int64(1), []byte{0x01, 0x02, 0x03, 0x04})
	f.Add(int64(7), []byte{0xff, 0xee, 0x10, 0x20, 0x30, 0x40, 0x55, 0x66})
	f.Add(int64(42), []byte{0x00, 0x00, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 2 || len(data) > 40 {
			t.Skip()
		}
		d := xmark.Generate(xmark.Config{Nodes: 100, Seed: seed % 8})
		g := d.Graph
		n := g.NumNodes()
		inc, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cur := g
		for i := 0; i+1 < len(data); i += 2 {
			u := graph.NodeID(int(data[i]) % n)
			v := graph.NodeID(int(data[i+1]) % n)
			st, err := inc.ApplyEdgeInsert(u, v)
			if err != nil {
				t.Fatalf("insert %d->%d: %v", u, v, err)
			}
			if !st.Duplicate {
				cur = cur.WithEdge(u, v)
			}
		}
		rebuilt, err := gdb.Build(cur, gdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p := workload.Paths()[0].Pattern // site->regions; regions->item
		got := sortedRows(t, inc, p, exec.DPS)
		want := sortedRows(t, rebuilt, p, exec.DPS)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("incremental %d rows, rebuild %d rows", len(got), len(want))
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i < 60; i++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			gi, err := inc.Reaches(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := graph.Reaches(cur, u, v); gi != want {
				t.Fatalf("Reaches(%d,%d) = %v, BFS says %v", u, v, gi, want)
			}
		}
		rebuilt.Close()
		inc.Close()
	})
}
