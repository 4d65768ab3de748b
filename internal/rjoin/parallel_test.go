package rjoin

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// buildDBs returns the same graph indexed memory-backed and file-backed, so
// the parallel/serial crosscheck covers both pagers (the file pager
// exercises real page reads under concurrent partitions).
func buildDBs(t *testing.T, g *graph.Graph) map[string]*gdb.Snap {
	t.Helper()
	mem, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memSnap, memRelease := mem.Pin()
	t.Cleanup(func() { memRelease(); mem.Close() })
	file, err := gdb.Build(g, gdb.Options{Path: filepath.Join(t.TempDir(), "cross.fgmdb")})
	if err != nil {
		t.Fatal(err)
	}
	fileSnap, fileRelease := file.Pin()
	t.Cleanup(func() { fileRelease(); file.Close() })
	return map[string]*gdb.Snap{"memory": memSnap, "file": fileSnap}
}

// extentOf builds a single-column temporal table holding every node of the
// given label, replicated so the table comfortably exceeds the row-range
// partition grain (forcing real multi-worker splits).
func extentOf(g *graph.Graph, l graph.Label, node, replicas int) *Table {
	t := NewTable(node)
	for r := 0; r < replicas; r++ {
		for _, v := range g.Extent(l) {
			t.Rows = append(t.Rows, []graph.NodeID{v})
		}
	}
	return t
}

// TestParallelMatchesSerial is the operator-parallelism crosscheck: for
// HPSJ, Filter, FilterGroup, Fetch, and Selection, every worker degree must
// produce a result row-for-row identical — same order, not just the same
// set — to the serial (one-worker) path, on memory- and file-backed
// databases. Run under -race (the verify tier does) this also proves the
// partitions share the database safely.
func TestParallelMatchesSerial(t *testing.T) {
	g := randomGraph(41, 900, 2600, 3)
	al, bl := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	ctx := context.Background()
	for name, db := range buildDBs(t, g) {
		t.Run(name, func(t *testing.T) {
			c := Cond{FromNode: 0, ToNode: 1, FromLabel: al, ToLabel: bl}
			bound := extentOf(g, al, 0, 4)
			revBound := extentOf(g, bl, 1, 4)

			type op struct {
				name string
				run  func(rt *Runtime) (*Table, error)
			}
			ops := []op{
				{"HPSJ", func(rt *Runtime) (*Table, error) { return rt.HPSJ(ctx, db, c) }},
				{"Filter", func(rt *Runtime) (*Table, error) { return rt.Filter(ctx, db, bound, c) }},
				{"FilterReverse", func(rt *Runtime) (*Table, error) { return rt.Filter(ctx, db, revBound, c) }},
				{"FilterGroup", func(rt *Runtime) (*Table, error) {
					return rt.FilterGroup(ctx, db, bound, []Cond{c}, 0, true)
				}},
				{"Fetch", func(rt *Runtime) (*Table, error) { return rt.Fetch(ctx, db, bound, c) }},
				{"FetchReverse", func(rt *Runtime) (*Table, error) { return rt.Fetch(ctx, db, revBound, c) }},
				{"Selection", func(rt *Runtime) (*Table, error) {
					pairs := NewTable(0, 1)
					for _, x := range g.Extent(al) {
						for _, y := range g.Extent(bl) {
							pairs.Rows = append(pairs.Rows, []graph.NodeID{x, y})
						}
					}
					return rt.Selection(ctx, db, pairs, c)
				}},
			}
			for _, o := range ops {
				serialOut, err := o.run(NewRuntime(1))
				if err != nil {
					t.Fatalf("%s serial: %v", o.name, err)
				}
				for _, workers := range []int{2, 4, 8} {
					got, err := o.run(NewRuntime(workers))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", o.name, workers, err)
					}
					if !reflect.DeepEqual(got.Cols, serialOut.Cols) {
						t.Fatalf("%s workers=%d: cols %v != %v", o.name, workers, got.Cols, serialOut.Cols)
					}
					if !reflect.DeepEqual(got.Rows, serialOut.Rows) {
						t.Fatalf("%s workers=%d: %d rows differ from serial %d rows (order-sensitive compare)",
							o.name, workers, got.Len(), serialOut.Len())
					}
				}
			}
		})
	}
}

// TestParallelPackageFuncsMatchRuntime: the package-level operator
// functions are the serial reference; a Runtime at any degree must agree
// with them (guards the wrappers against drifting from the methods).
func TestParallelPackageFuncsMatchRuntime(t *testing.T) {
	g := randomGraph(42, 300, 800, 3)
	db := mustDB(t, g)
	c := cond(g, "A", "B", 0, 1)
	ctx := context.Background()
	want, err := HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRuntime(4).HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("package HPSJ %d rows != runtime HPSJ %d rows", want.Len(), got.Len())
	}
}

// TestParallelCancellation: a context cancelled before (and during) a
// parallel operator aborts every partition and surfaces context.Canceled,
// not a partial table.
func TestParallelCancellation(t *testing.T) {
	g := randomGraph(43, 400, 1100, 2)
	db := mustDB(t, g)
	a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	c := Cond{FromNode: 0, ToNode: 1, FromLabel: a, ToLabel: b}
	tbl := extentOf(g, a, 0, 1+6*cancelStride/g.ExtentSize(a))

	for _, workers := range []int{1, 4} {
		rt := NewRuntime(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := rt.Filter(ctx, db, tbl, c); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d Filter on cancelled ctx: %v", workers, err)
		}
		if _, err := rt.Fetch(ctx, db, tbl, c); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d Fetch on cancelled ctx: %v", workers, err)
		}
		if _, err := rt.Selection(ctx, db, NewTable(0, 1), c); err != nil {
			// An empty table finishes before any cancellation poll; that is
			// fine — the contract is prompt abandonment of large work.
			t.Fatalf("workers=%d Selection on empty table: %v", workers, err)
		}
	}

	// Mid-operator cancellation: cancel from another goroutine while a
	// parallel Fetch grinds through a large table; the operator must return
	// the context error (or finish first on a fast machine — both are
	// legal, a partial result is not).
	rt := NewRuntime(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		<-done
		cancel()
	}()
	close(done)
	out, err := rt.Fetch(ctx, db, tbl, c)
	if err == nil {
		want, serr := Fetch(context.Background(), db, tbl, c)
		if serr != nil {
			t.Fatal(serr)
		}
		if !reflect.DeepEqual(out.Rows, want.Rows) {
			t.Fatal("Fetch raced cancellation and returned a partial result")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-operator cancel: %v", err)
	}
}

// TestCenterCacheReuse: the first Fetch on an epoch fills one partner slot
// per distinct bound value; a second Fetch — another query's runtime on the
// same snapshot — hits every slot, and returns the same rows as the
// counted-I/O reference path.
func TestCenterCacheReuse(t *testing.T) {
	g := randomGraph(44, 500, 1400, 3)
	db := mustDB(t, g)
	c := cond(g, "A", "B", 0, 1)
	tbl := extentOf(g, g.Labels().Lookup("A"), 0, 2)
	ctx := context.Background()

	first := NewRuntime(1)
	want, err := first.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	distinct := int64(g.ExtentSize(g.Labels().Lookup("A")))
	if st := first.Stats(); st.CenterCacheMisses != distinct || st.CenterCacheHits != int64(tbl.Len())-distinct {
		t.Fatalf("first Fetch over %d rows of %d values: %d slot misses, %d hits", tbl.Len(), distinct, st.CenterCacheMisses, st.CenterCacheHits)
	}
	second := NewRuntime(1)
	got, err := second.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.CenterCacheHits != int64(tbl.Len()) || st.CenterCacheMisses != 0 || st.MemoMisses != 0 {
		t.Fatalf("second Fetch over %d rows: %d slot hits, %d slot misses, %d memo misses", tbl.Len(), st.CenterCacheHits, st.CenterCacheMisses, st.MemoMisses)
	}
	ref := NewRuntime(1)
	ref.CountIO()
	refRows, err := ref.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Rows, refRows.Rows) {
		t.Fatalf("Fetch rows differ: first %d, second %d, reference %d", want.Len(), got.Len(), refRows.Len())
	}
}

// TestFetchForeignLabelColumn: package-level callers may hand Fetch a column
// whose values do not carry the condition's bound label. Such a value must
// not index another node's partner slot: both directions return the
// counted-I/O reference path's rows, before and after the table is warm.
func TestFetchForeignLabelColumn(t *testing.T) {
	g := randomGraph(44, 500, 1400, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	for _, tc := range []struct {
		c   Cond
		col int
	}{
		{cond(g, "A", "B", 0, 1), 0}, // column 0 stands for A, holds C nodes
		{cond(g, "A", "B", 1, 0), 0}, // column 0 stands for B, holds C nodes
	} {
		foreign := extentOf(g, g.Labels().Lookup("C"), tc.col, 1)
		ref := NewRuntime(1)
		ref.CountIO()
		want, err := ref.Fetch(ctx, db, foreign, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 {
			t.Fatalf("%v: reference Fetch over C nodes is empty; the test proves nothing", tc.c)
		}
		for _, state := range []string{"cold", "warm"} {
			got, err := Fetch(ctx, db, foreign, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%v, %s table: Fetch over a C-labeled column returned %d rows, reference %d", tc.c, state, got.Len(), want.Len())
			}
			// Warm the table with its own label's values for the second round.
			own := tc.c.FromLabel
			if tc.c.FromNode != tc.col {
				own = tc.c.ToLabel
			}
			if _, err := Fetch(ctx, db, extentOf(g, own, tc.col, 1), tc.c); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRuntimeStats: parallel operators account their partition tasks.
func TestRuntimeStats(t *testing.T) {
	g := randomGraph(45, 600, 1600, 2)
	db := mustDB(t, g)
	c := cond(g, "A", "B", 0, 1)
	tbl := extentOf(g, g.Labels().Lookup("A"), 0, 4)

	rt := NewRuntime(4)
	if _, err := rt.Filter(context.Background(), db, tbl, c); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Ops == 0 || st.Tasks < st.Ops {
		t.Fatalf("implausible stats: %+v", st)
	}
	if tbl.Len() >= minParallelGrains*rowGrain && st.ParallelOps == 0 {
		t.Fatalf("large table did not split: %+v (rows=%d)", st, tbl.Len())
	}
}

// BenchmarkOperatorParallel measures the four partitioned operators on an
// XMark-derived dataset across worker degrees, asserting nothing but
// printing the scaling the acceptance criterion tracks (compare
// workers=1 vs workers=8 ns/op on multi-core hardware).
func BenchmarkOperatorParallel(b *testing.B) {
	d := xmark.Generate(xmark.Config{Nodes: 8000, Seed: 7, DAG: true})
	g := d.Graph
	dbx, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()

	// Pick the label pair with the largest R-join to make the operators
	// compute-bound rather than setup-bound.
	var c Cond
	var best int64
	for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
		for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
			if x == y {
				continue
			}
			sz, err := db.JoinSize(x, y)
			if err != nil {
				b.Fatal(err)
			}
			if sz > best {
				best = sz
				c = Cond{FromNode: 0, ToNode: 1, FromLabel: x, ToLabel: y}
			}
		}
	}
	bound := extentOf(g, c.FromLabel, 0, 2)
	ctx := context.Background()

	for _, workers := range []int{1, 2, 4, 8} {
		ops := []struct {
			name string
			run  func(rt *Runtime) error
		}{
			{"HPSJ", func(rt *Runtime) error { _, err := rt.HPSJ(ctx, db, c); return err }},
			{"Filter", func(rt *Runtime) error { _, err := rt.Filter(ctx, db, bound, c); return err }},
			{"Fetch", func(rt *Runtime) error { _, err := rt.Fetch(ctx, db, bound, c); return err }},
			{"Selection", func(rt *Runtime) error {
				pairs := NewTable(0, 1)
				ys := g.Extent(c.ToLabel)
				for _, x := range g.Extent(c.FromLabel) {
					for k := 0; k < 4 && k < len(ys); k++ {
						pairs.Rows = append(pairs.Rows, []graph.NodeID{x, ys[k]})
					}
				}
				_, err := rt.Selection(ctx, db, pairs, c)
				return err
			}},
		}
		for _, o := range ops {
			b.Run(fmt.Sprintf("%s/workers=%d", o.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rt := NewRuntime(workers)
					if err := o.run(rt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
