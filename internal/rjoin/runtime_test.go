package rjoin

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// extentOf builds a single-column temporal table holding every node of the
// given label, replicated replicas times.
func extentOf(g *graph.Graph, l graph.Label, node, replicas int) *Result {
	t := &Result{Cols: []int{node}}
	for r := 0; r < replicas; r++ {
		t.Data = append(t.Data, g.Extent(l)...)
	}
	t.N = len(t.Data)
	return t
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

	first := new(Runtime)
	want, err := first.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	distinct := int64(g.ExtentSize(g.Labels().Lookup("A")))
	if st := first.Stats(); st.CenterCacheMisses != distinct || st.CenterCacheHits != int64(tbl.Len())-distinct {
		t.Fatalf("first Fetch over %d rows of %d values: %d slot misses, %d hits", tbl.Len(), distinct, st.CenterCacheMisses, st.CenterCacheHits)
	}
	second := new(Runtime)
	got, err := second.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.CenterCacheHits != int64(tbl.Len()) || st.CenterCacheMisses != 0 {
		t.Fatalf("second Fetch over %d rows: %d slot hits, %d slot misses", tbl.Len(), st.CenterCacheHits, st.CenterCacheMisses)
	}
	ref := new(Runtime)
	ref.CountIO()
	refRows, err := ref.Fetch(ctx, db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !reflect.DeepEqual(got.Data, want.Data) || !reflect.DeepEqual(got.Data, refRows.Data) {
		t.Fatalf("Fetch rows differ: first %d, second %d, reference %d", want.Len(), got.Len(), refRows.Len())
	}
}

// TestFetchForeignLabelColumn: package-level callers may hand Fetch a column
// whose values do not carry the condition's bound label. Such a value must
// not index another node's partner slot: both directions return the
// counted-I/O reference path's rows, before and after the table is warm,
// written out or factorised, however often the factorised column is read.
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
		ref := new(Runtime)
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
			if !reflect.DeepEqual(got.Data, want.Data) {
				t.Fatalf("%v, %s table: Fetch over a C-labeled column returned %d rows, reference %d", tc.c, state, got.Len(), want.Len())
			}
			// A factorised column re-reads each list by the bound value:
			// a foreign one is computed again, the same list every time.
			res, err := new(Runtime).FetchResult(ctx, db, foreign, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			if first := walkLists(res); !reflect.DeepEqual(tab(res).Rows, tab(want).Rows) || !reflect.DeepEqual(walkLists(res), first) {
				t.Fatalf("%v, %s table: the factorised Fetch over a C-labeled column re-reads other lists", tc.c, state)
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

// TestRuntimeStats: every operator counts once, and the names kept for
// benchmark/ report the single-goroutine execution: one worker, no
// parallel operators, one task per operator.
func TestRuntimeStats(t *testing.T) {
	g := randomGraph(45, 600, 1600, 2)
	db := mustDB(t, g)
	c := cond(g, "A", "B", 0, 1)
	tbl := extentOf(g, g.Labels().Lookup("A"), 0, 4)
	ctx := context.Background()

	rt := NewRuntime(4)
	if _, err := rt.Filter(ctx, db, clone(tbl), c); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Fetch(ctx, db, tbl, c); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Ops != 2 || st.Tasks != st.Ops || st.ParallelOps != 0 || rt.Workers() != 1 {
		t.Fatalf("stats %+v, workers %d: want 2 ops, one task each, no parallel ops, one worker", st, rt.Workers())
	}
}

// TestParallelCancellation (name kept; nothing runs in parallel any more): a
// query's context may be cancelled from another goroutine while an operator
// runs. A cancel racing a running Fetch over several cancelStride rows
// yields either the context error or the full result — both are legal —
// never a partial result. The first-poll checks on an already-cancelled
// context are TestOperatorCancellation's.
func TestParallelCancellation(t *testing.T) {
	g := randomGraph(43, 400, 1100, 2)
	db := mustDB(t, g)
	a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	c := Cond{FromNode: 0, ToNode: 1, FromLabel: a, ToLabel: b}
	tbl := extentOf(g, a, 0, 1+6*cancelStride/g.ExtentSize(a))

	want, err := Fetch(context.Background(), db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	close(started)
	out, err := new(Runtime).Fetch(ctx, db, tbl, c)
	if err == nil {
		if !reflect.DeepEqual(out.Data, want.Data) {
			t.Fatal("Fetch raced cancellation and returned a partial result")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-operator cancel: %v", err)
	}
}

// BenchmarkOperators measures HPSJ, Filter, Fetch and Selection on an
// XMark-derived dataset, on the label pair with the largest R-join; the
// last three also in ns per input row.
func BenchmarkOperators(b *testing.B) {
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
	// Filter, Fetch and Selection run over the pair's whole From extent,
	// repeated to at least 4,096 rows, so their per-row kernels and not
	// their set-up are what ns/row reports.
	ext := len(g.Extent(c.FromLabel))
	bound := extentOf(g, c.FromLabel, 0, (4096+ext-1)/ext)
	pairs := &Result{Cols: []int{0, 1}}
	ys := g.Extent(c.ToLabel)
	for _, x := range bound.Data {
		for k := 0; k < 4 && k < len(ys); k++ {
			pairs.Data = append(pairs.Data, x, ys[k])
			pairs.N++
		}
	}
	ctx := context.Background()

	// Filter and Selection consume their input, so each run gets a copy;
	// the copy's bytes are in their B/op. HPSJ has no input rows.
	ops := []struct {
		name string
		rows int
		run  func(rt *Runtime) error
	}{
		{"HPSJ", 0, func(rt *Runtime) error { _, err := rt.HPSJ(ctx, db, c); return err }},
		{"Filter", bound.N, func(rt *Runtime) error { _, err := rt.Filter(ctx, db, clone(bound), c); return err }},
		{"Fetch", bound.N, func(rt *Runtime) error { _, err := rt.Fetch(ctx, db, bound, c); return err }},
		{"Selection", pairs.N, func(rt *Runtime) error { _, err := rt.Selection(ctx, db, clone(pairs), c); return err }},
	}
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := o.run(new(Runtime)); err != nil {
					b.Fatal(err)
				}
			}
			if o.rows > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*o.rows), "ns/row")
			}
		})
	}
}

// TestFlatTablesAllocate: an emitting Fetch writes its output into one
// exact pointer-free slice, so its allocations do not grow with its rows
// and its bytes are the output's N×w×4 (no 24-byte header per row: it
// looks each list up again as it writes the rows); FilterGroup and
// Selection compact in place and allocate nothing per row. Under a
// pushed-down limit that the first row's list already passes, a Fetch
// allocates the same bytes whatever the limit: it stores nothing per row
// the limit would allow.
func TestFlatTablesAllocate(t *testing.T) {
	g := randomGraph(45, 600, 1600, 2)
	db := mustDB(t, g)
	ctx := context.Background()
	c := cond(g, "A", "B", 0, 1)
	fetchOver := func(replicas int) (*Runtime, *Result) {
		return new(Runtime), extentOf(g, c.FromLabel, 0, replicas)
	}
	// measure runs f once warm and returns its allocations and bytes.
	measure := func(f func()) (allocs float64, bytes uint64) {
		f()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		f()
		goruntime.ReadMemStats(&after)
		return testing.AllocsPerRun(20, f), after.TotalAlloc - before.TotalAlloc
	}

	rt, in := fetchOver(1)
	one, err := rt.Fetch(ctx, db, in, c)
	if err != nil || one.N == 0 {
		t.Fatalf("Fetch: %d rows, %v", one.N, err)
	}
	replicas := 1 + 10000/one.N
	var allocs [2]float64
	for k, r := range []int{replicas, 2 * replicas} {
		rt, in := fetchOver(r)
		var out *Result
		a, bytes := measure(func() {
			if out, err = rt.Fetch(ctx, db, in, c); err != nil {
				t.Fatal(err)
			}
		})
		// The slack is a page of size-class rounding and the operator's
		// fixed state; a header per row would be 24 bytes × N.
		cells := uint64(out.N * len(out.Cols))
		if out.N < 10000 || bytes < 4*cells || bytes > 4*cells+12<<10 {
			t.Fatalf("Fetch of %d rows × %d columns allocated %d bytes, want %d (+ a constant)", out.N, len(out.Cols), bytes, 4*cells)
		}
		allocs[k] = a
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Fetch allocations grow with its output: %v", allocs)
	}

	// Inputs every row of which survives are left as they were, so each
	// run filters the same rows.
	pairs, err := HPSJ(ctx, db, c)
	if err != nil || pairs.N == 0 {
		t.Fatalf("HPSJ: %v", err)
	}
	for name, op := range map[string]func(in *Result) (*Result, error){
		"FilterGroup": func(in *Result) (*Result, error) {
			return new(Runtime).FilterGroup(ctx, db, in, []Cond{c}, c.FromNode, true)
		},
		"Selection": func(in *Result) (*Result, error) { return new(Runtime).Selection(ctx, db, in, c) },
	} {
		var allocs [2]float64
		for k, r := range []int{1, 8} {
			in := &Result{Cols: pairs.Cols, N: r * pairs.N}
			for range r {
				in.Data = append(in.Data, pairs.Data...)
			}
			a, bytes := measure(func() {
				if out, err := op(in); err != nil || out.N != in.N {
					t.Fatalf("%s: %v rows of %d, %v", name, out, in.N, err)
				}
			})
			if bytes > 4096 {
				t.Fatalf("%s over %d rows allocated %d bytes", name, in.N, bytes)
			}
			allocs[k] = a
		}
		if allocs[0] != allocs[1] {
			t.Fatalf("%s allocations grow with its input: %v", name, allocs)
		}
	}

	// One A node reaching 3,000 B nodes, bound in each of 5,000 input rows.
	b := graph.NewBuilder()
	hub := b.AddNode("A")
	for range 3000 {
		b.AddEdge(hub, b.AddNode("B"))
	}
	star := b.Build()
	sdb := mustDB(t, star)
	sc := cond(star, "A", "B", 0, 1)
	hubRows := extentOf(star, sc.FromLabel, 0, 5000)
	for name, fetch := range map[string]func(rt *Runtime) (*Result, error){
		"Fetch":       func(rt *Runtime) (*Result, error) { return rt.Fetch(ctx, sdb, hubRows, sc) },
		"FetchResult": func(rt *Runtime) (*Result, error) { return rt.FetchResult(ctx, sdb, hubRows, sc) },
	} {
		var bytes [2]uint64
		for k, limit := range []int{1, 2000} {
			_, bytes[k] = measure(func() {
				rt := new(Runtime)
				rt.SetBudget(&Budget{ResultRows: limit})
				rt.PushLimit(limit)
				if out, err := fetch(rt); err != nil || out.N != limit || !rt.Budget().Truncated() {
					t.Fatalf("%s limit %d: %v, %v", name, limit, out, err)
				}
			})
		}
		// A list slot per allowed row would be 24 bytes × 2,000. Fetch writes
		// its rows out, 8 bytes each, and only the rows the limit keeps.
		rowBytes := uint64(0)
		if name == "Fetch" {
			rowBytes = 8 * (2000 - 1)
		}
		if bytes[1] > bytes[0]+rowBytes+1024 {
			t.Fatalf("%s allocated %d bytes under limit 1 and %d under limit 2000", name, bytes[0], bytes[1])
		}
	}
}
