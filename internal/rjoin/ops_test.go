package rjoin

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

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

// mustDB builds a database and returns its pinned build snapshot — the
// operators under test take a *gdb.Snap.
func mustDB(t testing.TB, g *graph.Graph) *gdb.Snap {
	t.Helper()
	db, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, release := db.Pin()
	t.Cleanup(func() {
		release()
		db.Close()
	})
	return snap
}

// cond builds a Cond from label names for pattern nodes 0(from) and 1(to).
func cond(g *graph.Graph, from, to string, fromNode, toNode int) Cond {
	return Cond{
		FromNode:  fromNode,
		ToNode:    toNode,
		FromLabel: g.Labels().Lookup(from),
		ToLabel:   g.Labels().Lookup(to),
	}
}

// truthJoin computes the exact R-join result by BFS.
func truthJoin(g *graph.Graph, from, to graph.Label) map[[2]graph.NodeID]bool {
	out := map[[2]graph.NodeID]bool{}
	for _, x := range g.Extent(from) {
		for _, y := range g.Extent(to) {
			if graph.Reaches(g, x, y) {
				out[[2]graph.NodeID{x, y}] = true
			}
		}
	}
	return out
}

// tab writes a result out as a table in its own column order.
func tab(r *Result) *Table {
	t, err := r.Table(r.Cols)
	if err != nil {
		panic(err)
	}
	return t
}

// clone copies a result, for a caller that runs a consuming operator on an
// input it still needs.
func clone(r *Result) *Result {
	c := *r
	c.Data = slices.Clone(r.Data)
	c.Exp = slices.Clone(r.Exp)
	return &c
}

// column builds a one-column plain result over node holding vs.
func column(node int, vs []graph.NodeID) *Result {
	return &Result{Cols: []int{node}, Data: slices.Clone(vs), N: len(vs)}
}

// TestHPSJMatchesTruth: Algorithm 1 returns exactly the reachable pairs,
// with no duplicates.
func TestHPSJMatchesTruth(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 30, 65, 3)
		dbx, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			return false
		}
		defer dbx.Close()
		db, release := dbx.Pin()
		defer release()
		for x := graph.Label(0); int(x) < g.Labels().Len(); x++ {
			for y := graph.Label(0); int(y) < g.Labels().Len(); y++ {
				if x == y {
					continue
				}
				got, err := HPSJ(context.Background(), db, Cond{0, 1, x, y})
				if err != nil {
					return false
				}
				want := truthJoin(g, x, y)
				if got.Len() != len(want) {
					return false
				}
				for _, r := range tab(got).Rows {
					if !want[[2]graph.NodeID{r[0], r[1]}] {
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

func TestHPSJEqualsNestedLoop(t *testing.T) {
	g := randomGraph(4, 50, 110, 4)
	db := mustDB(t, g)
	c := cond(g, "A", "B", 0, 1)
	a, err := HPSJ(context.Background(), db, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NestedLoopJoin(context.Background(), db, c)
	if err != nil {
		t.Fatal(err)
	}
	at, bt := tab(a), tab(b)
	at.SortRows()
	bt.SortRows()
	if !reflect.DeepEqual(at.Rows, bt.Rows) {
		t.Fatalf("HPSJ %d rows != nested loop %d rows", a.Len(), b.Len())
	}
}

// TestFilterSemanticsForward: the R-semijoin drops exactly the rows whose
// bound value cannot join the other side.
func TestFilterSemanticsForward(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed^0x1234, 28, 60, 3)
		dbx, err := gdb.Build(g, gdb.Options{})
		if err != nil {
			return false
		}
		defer dbx.Close()
		db, release := dbx.Pin()
		defer release()
		a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
		if a < 0 || b < 0 {
			return true // degenerate label draw; skip
		}
		// Temporal table with one column: all A nodes.
		got, err := Filter(context.Background(), db, column(0, g.Extent(a)), Cond{0, 1, a, b})
		if err != nil {
			return false
		}
		kept := map[graph.NodeID]bool{}
		for _, v := range got.Data {
			kept[v] = true
		}
		for _, x := range g.Extent(a) {
			want := false
			for _, y := range g.Extent(b) {
				if graph.Reaches(g, x, y) {
					want = true
					break
				}
			}
			if kept[x] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterSemanticsReverse: the reverse-direction semijoin (Eq. 8).
func TestFilterSemanticsReverse(t *testing.T) {
	g := randomGraph(8, 40, 85, 3)
	db := mustDB(t, g)
	a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	tbl := column(1, g.Extent(b)) // Y side bound
	got, err := Filter(context.Background(), db, tbl, Cond{0, 1, a, b})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[graph.NodeID]bool{}
	for _, v := range got.Data {
		kept[v] = true
	}
	for _, y := range g.Extent(b) {
		want := false
		for _, x := range g.Extent(a) {
			if graph.Reaches(g, x, y) {
				want = true
				break
			}
		}
		if kept[y] != want {
			t.Fatalf("reverse filter kept[%d]=%v want %v", y, kept[y], want)
		}
	}
}

// TestFetchEqualsHPSJ: starting from the full extent of X, Fetch on X→Y
// must produce exactly the HPSJ result.
func TestFetchEqualsHPSJ(t *testing.T) {
	g := randomGraph(10, 45, 95, 3)
	db := mustDB(t, g)
	c := cond(g, "A", "C", 0, 1)
	fetched, err := Fetch(context.Background(), db, column(0, g.Extent(c.FromLabel)), c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := HPSJ(context.Background(), db, c)
	if err != nil {
		t.Fatal(err)
	}
	ft, wt := tab(fetched), tab(want)
	ft.SortRows()
	wt.SortRows()
	if !reflect.DeepEqual(ft.Rows, wt.Rows) {
		t.Fatalf("fetch %d rows != hpsj %d rows", ft.Len(), wt.Len())
	}
}

// TestFetchReverse: Fetch with the To side bound expands F-subclusters.
func TestFetchReverse(t *testing.T) {
	g := randomGraph(11, 45, 95, 3)
	db := mustDB(t, g)
	c := cond(g, "A", "C", 0, 1)
	fetched, err := Fetch(context.Background(), db, column(1, g.Extent(c.ToLabel)), c)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: [to, from] — project to [from, to] and compare to HPSJ.
	proj, err := fetched.Project([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := HPSJ(context.Background(), db, c)
	if err != nil {
		t.Fatal(err)
	}
	pt, wt := tab(proj), tab(want)
	pt.SortRows()
	wt.SortRows()
	if !reflect.DeepEqual(pt.Rows, wt.Rows) {
		t.Fatalf("reverse fetch mismatch: %d vs %d rows", pt.Len(), wt.Len())
	}
}

// TestFilterThenFetchEqualsFetch: HPSJ+ (filter;fetch) must produce the same
// join result as fetch alone (Eq. 9) — the filter only prunes earlier.
func TestFilterThenFetchEqualsFetch(t *testing.T) {
	g := randomGraph(12, 50, 100, 4)
	db := mustDB(t, g)
	c := cond(g, "B", "D", 0, 1)
	tbl := column(0, g.Extent(c.FromLabel))
	direct, err := Fetch(context.Background(), db, tbl, c)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Filter(context.Background(), db, clone(tbl), c)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Len() > tbl.Len() {
		t.Fatal("filter grew the table")
	}
	two, err := Fetch(context.Background(), db, filtered, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab(direct).Rows, tab(two).Rows) {
		t.Fatalf("filter+fetch != fetch: %d vs %d rows", two.Len(), direct.Len())
	}
}

// TestFilterGroupEqualsSequential: one shared scan (Remark 3.1) must equal
// applying the semijoins one at a time.
func TestFilterGroupEqualsSequential(t *testing.T) {
	g := randomGraph(13, 60, 130, 5)
	db := mustDB(t, g)
	// Temporal table: all C nodes in column 0; two semijoins C→D and C→E.
	cl := g.Labels().Lookup("C")
	cd := Cond{0, 1, cl, g.Labels().Lookup("D")}
	ce := Cond{0, 2, cl, g.Labels().Lookup("E")}
	multi, err := FilterGroup(context.Background(), db, column(0, g.Extent(cl)), []Cond{cd, ce}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Filter(context.Background(), db, column(0, g.Extent(cl)), cd)
	if err != nil {
		t.Fatal(err)
	}
	seq, err = Filter(context.Background(), db, seq, ce)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.Data, seq.Data) {
		t.Fatalf("FilterGroup %d rows != sequential %d rows", multi.Len(), seq.Len())
	}
}

// TestSelection: the self R-join checks a condition between bound columns.
func TestSelection(t *testing.T) {
	g := randomGraph(14, 40, 80, 3)
	db := mustDB(t, g)
	a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	// Cartesian product of extents, then select A→B.
	tbl := &Result{Cols: []int{0, 1}}
	for _, x := range g.Extent(a) {
		for _, y := range g.Extent(b) {
			tbl.Data = append(tbl.Data, x, y)
			tbl.N++
		}
	}
	sel, err := Selection(context.Background(), db, tbl, Cond{0, 1, a, b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := HPSJ(context.Background(), db, Cond{0, 1, a, b})
	if err != nil {
		t.Fatal(err)
	}
	// The product is in (x, y) order and HPSJ's pairs are sorted, so the
	// survivors come in HPSJ's order.
	if !reflect.DeepEqual(sel.Data, want.Data) {
		t.Fatalf("selection %d rows != hpsj %d rows", sel.Len(), want.Len())
	}
}

// pollCounter is a context that counts how often an operator polls it.
type pollCounter struct {
	context.Context
	polls int
}

func (c *pollCounter) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestOperatorCancellation: a cancelled context stops every operator at
// its first poll — which comes after at most cancelStride work units — with
// the context's error, not a partial result, so a large join cannot run to
// completion after its caller gave up. Every input is above the size at
// which operators used to split across workers: 64 HPSJ centers and 2,048
// rows.
func TestOperatorCancellation(t *testing.T) {
	g := fusedDAG(16, 5000, 15000)
	db := mustDB(t, g)
	ctx := context.Background()
	ab, bc := cond(g, "A", "B", 0, 1), cond(g, "B", "C", 1, 2)

	rows := extentOf(g, ab.FromLabel, 0, 1+2048/g.ExtentSize(ab.FromLabel))
	pairs := &Result{Cols: []int{0, 1}}
	for _, x := range g.Extent(ab.FromLabel) {
		for _, y := range g.Extent(ab.ToLabel)[:4] {
			pairs.Data = append(pairs.Data, x, y)
			pairs.N++
		}
	}
	ws, err := db.Centers(ab.FromLabel, ab.ToLabel)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) < 64 || rows.Len() < 2048 || pairs.Len() < 2048 {
		t.Fatalf("inputs too small: %d centers, %d rows, %d pairs", len(ws), rows.Len(), pairs.Len())
	}

	semijoinC := []NodeFilter{{Conds: []Cond{bc}, Semijoin: true, OutSide: true}}
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"HPSJ", func(ctx context.Context) error { _, err := HPSJ(ctx, db, ab); return err }},
		{"Filter", func(ctx context.Context) error { _, err := Filter(ctx, db, clone(rows), ab); return err }},
		{"FilterGroup", func(ctx context.Context) error {
			_, err := FilterGroup(ctx, db, clone(rows), []Cond{ab, cond(g, "A", "C", 0, 2)}, 0, true)
			return err
		}},
		{"Fetch", func(ctx context.Context) error { _, err := Fetch(ctx, db, rows, ab); return err }},
		{"FetchResult", func(ctx context.Context) error { _, err := new(Runtime).FetchResult(ctx, db, rows, ab); return err }},
		{"FetchFiltered", func(ctx context.Context) error {
			_, _, err := new(Runtime).FetchFiltered(ctx, db, rows, ab, semijoinC, true)
			return err
		}},
		{"Selection", func(ctx context.Context) error { _, err := Selection(ctx, db, clone(pairs), ab); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(ctx); err != nil {
			t.Fatalf("%s on a live context: %v", tc.name, err)
		}
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		pc := &pollCounter{Context: cancelled}
		if err := tc.run(pc); !errors.Is(err, context.Canceled) || pc.polls != 1 {
			t.Fatalf("%s on a cancelled context: %v after %d polls, want context.Canceled at the first", tc.name, err, pc.polls)
		}
	}
}

func TestOperatorErrors(t *testing.T) {
	g := randomGraph(15, 20, 40, 3)
	db := mustDB(t, g)
	a, b := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	c := Cond{0, 1, a, b}

	both := &Result{Cols: []int{0, 1}}
	if _, err := Filter(context.Background(), db, both, c); err == nil {
		t.Fatal("Filter with both sides bound should error")
	}
	if _, err := Fetch(context.Background(), db, both, c); err == nil {
		t.Fatal("Fetch with both sides bound should error")
	}
	neither := &Result{Cols: []int{7}}
	if _, err := Filter(context.Background(), db, neither, c); err == nil {
		t.Fatal("Filter with no side bound should error")
	}
	one := &Result{Cols: []int{0}}
	if _, err := Selection(context.Background(), db, one, c); err == nil {
		t.Fatal("Selection with one side bound should error")
	}
	if _, err := one.Project([]int{5}); err == nil {
		t.Fatal("Project of unbound column should error")
	}
	factorised := &Result{Cols: []int{0, 1}, Data: []graph.NodeID{3}, Exp: [][]graph.NodeID{{4}}, N: 1}
	if _, err := Selection(context.Background(), db, factorised, c); err == nil {
		t.Fatal("Selection over a factorised result should error")
	}
	if _, err := Fetch(context.Background(), db, factorised, Cond{1, 2, b, a}); err == nil {
		t.Fatal("Fetch over a factorised result should error")
	}
	if _, err := factorised.Project([]int{0}); err == nil {
		t.Fatal("Project of a factorised result should error")
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := &Result{Cols: []int{3, 1}, Data: []graph.NodeID{10, 20, 10, 20, 11, 21}, N: 3}
	if tbl.ColIndex(1) != 1 || tbl.ColIndex(3) != 0 || tbl.ColIndex(9) != -1 {
		t.Fatal("ColIndex wrong")
	}
	if !tbl.HasCol(3) || tbl.HasCol(9) {
		t.Fatal("HasCol wrong")
	}
	if tt := tab(tbl); tt.ColIndex(1) != 1 || !tt.HasCol(3) || tt.HasCol(9) || tt.String() == "" {
		t.Fatal("Table helpers wrong")
	}
	p, err := tbl.Project([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Project should dedup: %d rows", p.Len())
	}
	// FilterGroup with no conditions is the identity.
	got, err := FilterGroup(context.Background(), nil, tbl, nil, 0, true)
	if err != nil || got != tbl {
		t.Fatal("empty FilterGroup should return the input table")
	}
}

func BenchmarkHPSJ(b *testing.B) {
	g := randomGraph(20, 3000, 6000, 6)
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	c := cond(g, "A", "B", 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HPSJ(context.Background(), db, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterFetch(b *testing.B) {
	g := randomGraph(21, 3000, 6000, 6)
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	c := cond(g, "A", "B", 0, 1)
	tbl := column(0, g.Extent(c.FromLabel))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Filter consumes its input, so each iteration filters a copy.
		f, err := Filter(context.Background(), db, clone(tbl), c)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Fetch(context.Background(), db, f, c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFilterGroupExplicitSides: FilterGroup with an explicit bound node and
// side prunes exactly the rows whose value cannot join each condition's
// other-side base table — including conditions whose other endpoint is
// already bound (the residual check is left to a later Selection).
func TestFilterGroupExplicitSides(t *testing.T) {
	g := randomGraph(31, 60, 130, 5)
	db := mustDB(t, g)
	cl := g.Labels().Lookup("C")
	dl := g.Labels().Lookup("D")
	el := g.Labels().Lookup("E")

	// Table with both C (col 0) and D (col 1) bound.
	tbl := &Result{Cols: []int{0, 1}}
	for _, c := range g.Extent(cl) {
		for _, d := range g.Extent(dl) {
			tbl.Data = append(tbl.Data, c, d)
			tbl.N++
		}
	}
	conds := []Cond{
		{FromNode: 0, ToNode: 1, FromLabel: cl, ToLabel: dl}, // other side bound
		{FromNode: 0, ToNode: 2, FromLabel: cl, ToLabel: el}, // other side free
	}
	got, err := FilterGroup(context.Background(), db, tbl, conds, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tab(got).Rows
	for _, row := range rows {
		c := row[0]
		reachesSomeD, reachesSomeE := false, false
		for _, d := range g.Extent(dl) {
			if graph.Reaches(g, c, d) {
				reachesSomeD = true
				break
			}
		}
		for _, e := range g.Extent(el) {
			if graph.Reaches(g, c, e) {
				reachesSomeE = true
				break
			}
		}
		if !reachesSomeD || !reachesSomeE {
			t.Fatalf("row with c=%d survived but fails a semijoin", c)
		}
	}
	// Completeness: every c passing both semijoins keeps all its rows.
	kept := map[graph.NodeID]int{}
	for _, row := range rows {
		kept[row[0]]++
	}
	for _, c := range g.Extent(cl) {
		passD, passE := false, false
		for _, d := range g.Extent(dl) {
			if graph.Reaches(g, c, d) {
				passD = true
				break
			}
		}
		for _, e := range g.Extent(el) {
			if graph.Reaches(g, c, e) {
				passE = true
				break
			}
		}
		want := 0
		if passD && passE {
			want = g.ExtentSize(dl)
		}
		if kept[c] != want {
			t.Fatalf("c=%d kept %d rows, want %d", c, kept[c], want)
		}
	}
}

func TestFilterGroupErrors(t *testing.T) {
	g := randomGraph(32, 30, 60, 3)
	db := mustDB(t, g)
	al := g.Labels().Lookup("A")
	bl := g.Labels().Lookup("B")
	tbl := &Result{Cols: []int{0}}
	// Bound node not in table.
	if _, err := FilterGroup(context.Background(), db, tbl, []Cond{{FromNode: 5, ToNode: 6, FromLabel: al, ToLabel: bl}}, 5, true); err == nil {
		t.Fatal("expected error for unbound group node")
	}
	// Condition not incident on the declared side.
	tbl2 := &Result{Cols: []int{0}}
	if _, err := FilterGroup(context.Background(), db, tbl2, []Cond{{FromNode: 1, ToNode: 0, FromLabel: al, ToLabel: bl}}, 0, true); err == nil {
		t.Fatal("expected error for wrong-side condition")
	}
	// Empty condition list is the identity.
	if got, err := FilterGroup(context.Background(), db, tbl2, nil, 0, true); err != nil || got != tbl2 {
		t.Fatal("empty FilterGroup should return the input table")
	}
}

// TestFilterGroupImpossibleCondition: a condition whose W entry is empty
// empties the table immediately.
func TestFilterGroupImpossibleCondition(t *testing.T) {
	b := graph.NewBuilder()
	x := b.AddNode("X")
	b.AddNode("Y") // never connected
	g := b.Build()
	db := mustDB(t, g)
	tbl := column(0, []graph.NodeID{x})
	got, err := FilterGroup(context.Background(), db, tbl, []Cond{{
		FromNode: 0, ToNode: 1,
		FromLabel: g.Labels().Lookup("X"), ToLabel: g.Labels().Lookup("Y"),
	}}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("impossible condition kept %d rows", got.Len())
	}
}
