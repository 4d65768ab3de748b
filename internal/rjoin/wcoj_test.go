package rjoin

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fastmatch/internal/graph"
)

// naiveMultiway enumerates the exact result of a multiway R-join by brute
// force: every tuple over the variables' extents satisfying all conditions
// by BFS reachability, in lexicographic variable order.
func naiveMultiway(g *graph.Graph, labels []graph.Label, conds []Cond) [][]graph.NodeID {
	var out [][]graph.NodeID
	binding := make([]graph.NodeID, len(labels))
	var rec func(k int)
	rec = func(k int) {
		if k == len(labels) {
			out = append(out, append([]graph.NodeID(nil), binding...))
			return
		}
		for _, v := range g.Extent(labels[k]) {
			binding[k] = v
			ok := true
			for _, c := range conds {
				if c.FromNode > k || c.ToNode > k {
					continue
				}
				if !graph.Reaches(g, binding[c.FromNode], binding[c.ToNode]) {
					ok = false
					break
				}
			}
			if ok {
				rec(k + 1)
			}
		}
	}
	rec(0)
	return out
}

// triangle returns the A→B, B→C, A→C condition set over nodes 0,1,2.
func triangle(g *graph.Graph) ([]graph.Label, []Cond) {
	labels := []graph.Label{g.Labels().Lookup("A"), g.Labels().Lookup("B"), g.Labels().Lookup("C")}
	conds := []Cond{
		cond(g, "A", "B", 0, 1),
		cond(g, "B", "C", 1, 2),
		cond(g, "A", "C", 0, 2),
	}
	return labels, conds
}

// TestWCOJMatchesTruth: the leapfrog multiway join returns exactly the
// brute-force result of a triangle pattern, in lexicographic order of the
// variable order, with no duplicates.
func TestWCOJMatchesTruth(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		g := randomGraph(seed, 60, 150, 3)
		db := mustDB(t, g)
		labels, conds := triangle(g)
		want := naiveMultiway(g, labels, conds)

		got, err := WCOJ(context.Background(), db, conds, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want) {
			t.Fatalf("seed %d: WCOJ %d rows != naive %d rows (or order differs)",
				seed, got.Len(), len(want))
		}
	}
}

// TestWCOJOrderInvariance: every valid variable order yields the same
// result set (rows sorted for comparison; each order's own output is
// lexicographic in that order).
func TestWCOJOrderInvariance(t *testing.T) {
	g := randomGraph(24, 60, 160, 3)
	db := mustDB(t, g)
	_, conds := triangle(g)
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want *Table
	for _, order := range orders {
		got, err := WCOJ(context.Background(), db, conds, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		// The output columns follow the variable order; remap each row to
		// pattern-node order before comparing result sets.
		norm := NewTable(0, 1, 2)
		for _, row := range got.Rows {
			nr := make([]graph.NodeID, len(row))
			for i, col := range got.Cols {
				nr[col] = row[i]
			}
			norm.Rows = append(norm.Rows, nr)
		}
		norm.SortRows()
		if want == nil {
			want = norm
			continue
		}
		if !reflect.DeepEqual(norm.Rows, want.Rows) {
			t.Fatalf("order %v: %d rows != %d rows of order %v",
				order, norm.Len(), want.Len(), orders[0])
		}
	}
	if want.Len() == 0 {
		t.Fatal("triangle result empty; test graph too sparse to prove anything")
	}
}

// TestWCOJBudgetKill: the typed budget errors fire, same contract as the
// binary operators.
func TestWCOJBudgetKill(t *testing.T) {
	g := randomGraph(26, 80, 220, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	_, conds := triangle(g)
	full, err := WCOJ(ctx, db, conds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4 {
		t.Fatalf("graph too sparse for the test: %d rows", full.Len())
	}
	rt := new(Runtime)
	rt.SetBudget(&Budget{MaxTableRows: full.Len() - 1})
	if _, err := rt.WCOJ(ctx, db, conds, []int{0, 1, 2}); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("got %v, want ErrRowLimit", err)
	}
	rt = new(Runtime)
	rt.SetBudget(&Budget{MaxBytes: 16})
	if _, err := rt.WCOJ(ctx, db, conds, []int{0, 1, 2}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

// TestWCOJLimitPushdown: a pushed-down result limit yields exactly the
// first n rows of the unlimited output.
func TestWCOJLimitPushdown(t *testing.T) {
	g := randomGraph(26, 80, 220, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	_, conds := triangle(g)
	full, err := WCOJ(ctx, db, conds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 5 {
		t.Fatalf("graph too sparse for the test: %d rows", full.Len())
	}
	for _, n := range []int{1, 2, full.Len() - 1, full.Len(), full.Len() + 5} {
		rt := new(Runtime)
		b := &Budget{ResultRows: n}
		rt.SetBudget(b)
		rt.PushLimit(n)
		got, err := rt.WCOJ(ctx, db, conds, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(n, full.Len())
		if got.Len() != wantLen || !reflect.DeepEqual(got.Rows, full.Rows[:wantLen]) {
			t.Fatalf("limit=%d: not the unlimited prefix (%d rows, want %d)", n, got.Len(), wantLen)
		}
		if wantTrunc := n < full.Len(); b.Truncated() != wantTrunc {
			t.Fatalf("limit=%d: Truncated=%v, want %v", n, b.Truncated(), wantTrunc)
		}
	}
}

// TestWCOJCancellation: a cancelled context aborts the enumeration with
// the context's error.
func TestWCOJCancellation(t *testing.T) {
	g := randomGraph(27, 120, 400, 3)
	db := mustDB(t, g)
	_, conds := triangle(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WCOJ(ctx, db, conds, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestWCOJPlanErrors: malformed variable orders are rejected up front.
func TestWCOJPlanErrors(t *testing.T) {
	g := randomGraph(28, 40, 100, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	_, conds := triangle(g)
	cases := []struct {
		name  string
		order []int
	}{
		{"duplicate", []int{0, 1, 1}},
		{"uncovered endpoint", []int{0, 1}},
		{"unknown node", []int{0, 1, 3}},
	}
	for _, tc := range cases {
		if _, err := WCOJ(ctx, db, conds, tc.order); err == nil {
			t.Errorf("%s: order %v accepted", tc.name, tc.order)
		}
	}
	// Orders that bind a node before any adjacent one are still valid —
	// the node's level seeds from its conditions' distinct projections.
	// A→B; B→C with order {0,2,1} runs C off π_C(B⇝C) and must still
	// match the brute-force result.
	path := []Cond{cond(g, "A", "B", 0, 1), cond(g, "B", "C", 1, 2)}
	got, err := WCOJ(ctx, db, path, []int{0, 2, 1})
	if err != nil {
		t.Fatalf("projection-seeded order rejected: %v", err)
	}
	labels := []graph.Label{g.Labels().Lookup("A"), g.Labels().Lookup("B"), g.Labels().Lookup("C")}
	want := naiveMultiway(g, labels, path)
	norm := NewTable(0, 1, 2)
	for _, row := range got.Rows {
		nr := make([]graph.NodeID, len(row))
		for i, col := range got.Cols {
			nr[col] = row[i]
		}
		norm.Rows = append(norm.Rows, nr)
	}
	norm.SortRows()
	if !reflect.DeepEqual(norm.Rows, want) {
		t.Fatalf("projection-seeded order: %d rows != naive %d", norm.Len(), len(want))
	}
}

// TestWCOJCounters: the runtime's seek/next counters advance.
func TestWCOJCounters(t *testing.T) {
	g := randomGraph(25, 80, 220, 3)
	db := mustDB(t, g)
	_, conds := triangle(g)
	rt := new(Runtime)
	res, err := rt.WCOJ(context.Background(), db, conds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Seeks <= 0 || st.IterNexts <= 0 {
		t.Fatalf("counters did not advance: seeks=%d nexts=%d", st.Seeks, st.IterNexts)
	}
	if st.IterNexts < int64(res.Len()) {
		t.Fatalf("IterNexts=%d below result rows %d", st.IterNexts, res.Len())
	}
}
