package fastmatch_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fastmatch"
	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/twohop"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// The deletion half of the differential harness: an incrementally
// maintained database fed a mixed insert/delete stream must stay
// query-equivalent to a from-scratch rebuild over the same mutated graph —
// DP and DPS, plus sampled reachability — at every checkpoint. This is the
// correctness story for the over-delete/re-insert repair path (2-hop
// removal deltas → base tables → cluster index → W-table retraction); see
// DESIGN.md.

// pickPresentEdge returns a uniformly-ish random present edge of g, or
// ok=false when g has none.
func pickPresentEdge(g *graph.Graph, rng *rand.Rand) (u, v graph.NodeID, ok bool) {
	n := g.NumNodes()
	for tries := 0; tries < 4*n; tries++ {
		c := graph.NodeID(rng.Intn(n))
		if succ := g.Successors(c); len(succ) > 0 {
			return c, succ[rng.Intn(len(succ))], true
		}
	}
	return 0, 0, false
}

// TestDifferentialMixedStreamMatchesRebuild is the deterministic seeded
// run: ≥200 mixed edge inserts and deletes on an XMark-derived graph,
// differentially tested against from-scratch rebuilds at four checkpoints.
func TestDifferentialMixedStreamMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, l := range labelings {
		t.Run(l.name, func(t *testing.T) {
			d := xmark.Generate(xmark.Config{Nodes: 2500, Seed: 17})
			g := d.Graph
			inc := buildLabeled(t, g, l.opt)
			defer inc.Close()

			rng := rand.New(rand.NewSource(103))
			cur := g
			n := g.NumNodes()
			deletes := 0
			const ops = 240
			for i := 1; i <= ops; i++ {
				if rng.Intn(3) == 0 { // ~1/3 deletes keeps the graph from draining
					u, v, ok := pickPresentEdge(cur, rng)
					if !ok {
						t.Fatalf("op %d: graph ran out of edges", i)
					}
					st, err := inc.ApplyEdgeDelete(u, v)
					if err != nil {
						t.Fatalf("op %d delete %d->%d: %v", i, u, v, err)
					}
					if st.Missing {
						t.Fatalf("op %d: delete of present edge %d->%d reported Missing", i, u, v)
					}
					cur = cur.WithoutEdge(u, v)
					deletes++
				} else {
					u := graph.NodeID(rng.Intn(n))
					v := graph.NodeID(rng.Intn(n))
					st, err := inc.ApplyEdgeInsert(u, v)
					if err != nil {
						t.Fatalf("op %d insert %d->%d: %v", i, u, v, err)
					}
					if !st.Duplicate {
						cur = cur.WithEdge(u, v)
					}
				}
				if i%60 == 0 {
					compareDatabases(t, inc, cur, rng, "mixed checkpoint")
				}
			}
			if deletes < 40 {
				t.Fatalf("stream held only %d deletes; not a meaningful mixed workload", deletes)
			}
		})
	}
}

// TestReopenDoesNotDependOnLabeling: a file whose stored codes are not the
// cover gdb.Build computes, and whose manifest names the backend that wrote
// them ("reach_backend": "pll", as files written before the backend
// registry was removed do), reopens and is maintained from those codes:
// after every publish of a mixed insert/delete stream it answers like a
// from-scratch build.
func TestReopenDoesNotDependOnLabeling(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 500, Seed: 23}).Graph
	cover := twohop.Compute(g, twohop.Options{Order: twohop.OrderRandom, Seed: 3})
	if def := twohop.Compute(g, twohop.Options{}); cover.Size() == def.Size() {
		t.Fatalf("the random-order cover has the default's size %d; pick a labeling Build would not compute", def.Size())
	}
	path := filepath.Join(t.TempDir(), "pll.fdb")
	db, err := gdb.BuildFromIndex(g, cover, gdb.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["reach_backend"] = json.RawMessage(`"pll"`)
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".manifest", raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = gdb.Open(path, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.CoverSize() != cover.Size() {
		t.Fatalf("reopened cover size %d, the stored labeling has %d", db.CoverSize(), cover.Size())
	}
	rng := rand.New(rand.NewSource(29))
	cur := g
	n := g.NumNodes()
	publishes := 0
	for i := 1; i <= 60; i++ {
		epoch := db.EpochStats().Current
		if i%3 == 0 {
			u, v, ok := pickPresentEdge(cur, rng)
			if !ok {
				t.Fatalf("op %d: graph ran out of edges", i)
			}
			if _, err := db.ApplyEdgeDelete(u, v); err != nil {
				t.Fatalf("op %d delete %d->%d: %v", i, u, v, err)
			}
			cur = cur.WithoutEdge(u, v)
		} else {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			st, err := db.ApplyEdgeInsert(u, v)
			if err != nil {
				t.Fatalf("op %d insert %d->%d: %v", i, u, v, err)
			}
			if !st.Duplicate {
				cur = cur.WithEdge(u, v)
			}
		}
		if db.EpochStats().Current != epoch {
			publishes++
			compareDatabases(t, db, cur, rng, fmt.Sprintf("op %d", i))
		}
	}
	if publishes < 50 {
		t.Fatalf("only %d of 60 operations published", publishes)
	}
}

// TestEngineDeleteEdge drives the public API end to end: DeleteEdge shrinks
// query results, reports absent edges as no-ops, and classifies bad
// endpoints.
func TestEngineDeleteEdge(t *testing.T) {
	b := fastmatch.NewGraphBuilder()
	var as, bs []fastmatch.NodeID
	for i := 0; i < 4; i++ {
		as = append(as, b.AddNode("A"))
	}
	for i := 0; i < 4; i++ {
		bs = append(bs, b.AddNode("B"))
	}
	b.AddEdge(as[0], bs[0])
	b.AddEdge(as[1], bs[1])
	eng, err := fastmatch.NewEngine(b.Build(), fastmatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Query("A->B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("seed query: %d rows, want 2", len(res.Rows))
	}
	st, err := eng.DeleteEdge(as[0], bs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Missing || st.RemovedLabelEntries == 0 {
		t.Fatalf("delete stats %+v", st)
	}
	if ok, err := eng.Reaches(as[0], bs[0]); err != nil || ok {
		t.Fatalf("Reaches after delete = %v, %v", ok, err)
	}
	res, err = eng.Query("A->B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-delete query: %d rows, want 1", len(res.Rows))
	}
	// Deleting again is a no-op, not an error.
	if st, err := eng.DeleteEdge(as[0], bs[0]); err != nil || !st.Missing {
		t.Fatalf("repeat delete: %+v, %v", st, err)
	}
	if _, err := eng.DeleteEdge(0, 1000); !errors.Is(err, fastmatch.ErrBadDelete) {
		t.Fatalf("bad endpoint: err = %v, want ErrBadDelete", err)
	}
	// Delete + reinsert restores the original result set.
	if _, err := eng.InsertEdge(as[0], bs[0]); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query("A->B")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-reinsert query: %d rows, want 2", len(res.Rows))
	}
	if err := eng.Sync(); err != nil { // in-memory: no-op
		t.Fatal(err)
	}
}

// FuzzEdgeDeleteDifferential lets the fuzzer choose a mixed insert/delete
// sequence on a small XMark graph: whatever the sequence — including
// deletes of absent edges and delete/reinsert churn — the incrementally
// maintained database must agree with a from-scratch rebuild on a pattern
// query and on sampled reachability.
func FuzzEdgeDeleteDifferential(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02, 0x81, 0x01, 0x02})
	f.Add(int64(7), []byte{0xff, 0xee, 0x10, 0x20, 0x30, 0x40, 0x95, 0x66, 0x04})
	f.Add(int64(42), []byte{0x80, 0x00, 0x01, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) < 3 || len(data) > 60 {
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
		hasEdge := func(u, v graph.NodeID) bool {
			for _, w := range cur.Successors(u) {
				if w == v {
					return true
				}
			}
			return false
		}
		for i := 0; i+2 < len(data); i += 3 {
			del := data[i]&0x80 != 0
			u := graph.NodeID(int(data[i+1]) % n)
			v := graph.NodeID(int(data[i+2]) % n)
			if del {
				st, err := inc.ApplyEdgeDelete(u, v)
				if err != nil {
					t.Fatalf("delete %d->%d: %v", u, v, err)
				}
				if st.Missing != !hasEdge(u, v) {
					t.Fatalf("delete %d->%d: Missing=%v but edge present=%v",
						u, v, st.Missing, hasEdge(u, v))
				}
				if !st.Missing {
					cur = cur.WithoutEdge(u, v)
				}
			} else {
				st, err := inc.ApplyEdgeInsert(u, v)
				if err != nil {
					t.Fatalf("insert %d->%d: %v", u, v, err)
				}
				if !st.Duplicate {
					cur = cur.WithEdge(u, v)
				}
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
