package rjoin

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"fastmatch/internal/graph"
)

// TestFetchResultMatchesFetch: the factorised Fetch and the materialising
// one are the same operator. Forward and reverse, unlimited and with the
// limit at 1, inside a partner list, exactly on a list boundary, at N and
// past it, FetchResult written out equals Fetch's rows (the unlimited
// prefix), in any column order, and the budget saw the same bytes, peak
// and truncation.
func TestFetchResultMatchesFetch(t *testing.T) {
	g := randomGraph(41, 300, 700, 3)
	al, bl := g.Labels().Lookup("A"), g.Labels().Lookup("B")
	db := mustDB(t, g)
	ctx := context.Background()
	c := Cond{FromNode: 0, ToNode: 1, FromLabel: al, ToLabel: bl}

	for name, in := range map[string]*Result{"forward": extentOf(g, al, 0, 24), "reverse": extentOf(g, bl, 1, 24)} {
		full, err := new(Runtime).FetchResult(ctx, db, in, c)
		if err != nil {
			t.Fatal(err)
		}
		if full.Exp == nil || full.N < 100 || len(full.Exp) != in.N || &full.Data[0] != &in.Data[0] {
			t.Fatalf("%s: unlimited FetchResult is not factorised over its input: %d rows, %d prefixes", name, full.N, len(full.Exp))
		}
		// The first list of two or more rows with rows after it gives a limit
		// inside a list and one exactly on its end.
		inside, boundary := 0, 0
		for i, n := 0, 0; i < len(full.Exp) && boundary == 0; i++ {
			if l := len(full.Exp[i]); l >= 2 && n > 0 {
				inside, boundary = n+1, n+l
			}
			n += len(full.Exp[i])
		}
		if boundary == 0 || boundary >= full.N {
			t.Fatalf("%s: no interior list boundary in %d rows", name, full.N)
		}
		for _, limit := range []int{0, 1, inside, boundary, full.N, full.N + 1} {
			bt, br := &Budget{ResultRows: limit}, &Budget{ResultRows: limit}
			rtT, rtR := new(Runtime), new(Runtime)
			rtT.SetBudget(bt)
			rtR.SetBudget(br)
			rtT.PushLimit(limit)
			rtR.PushLimit(limit)
			wantRes, err := rtT.Fetch(ctx, db, in, c)
			if err != nil {
				t.Fatal(err)
			}
			want := tab(wantRes)
			res, err := rtR.FetchResult(ctx, db, in, c)
			if err != nil {
				t.Fatal(err)
			}
			wantN := full.N
			if limit > 0 && limit < wantN {
				wantN = limit
			}
			if res.N != wantN || want.Len() != wantN {
				t.Fatalf("%s limit=%d: %d / %d rows, want %d", name, limit, res.N, want.Len(), wantN)
			}
			got, err := res.Table(want.Cols)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != res.N || !slices.EqualFunc(got.Rows, want.Rows, slices.Equal[[]graph.NodeID]) {
				t.Fatalf("%s limit=%d: FetchResult written out (%d rows) differs from Fetch (%d rows)",
					name, limit, got.Len(), want.Len())
			}
			if bt.Bytes() != br.Bytes() || bt.PeakRows() != br.PeakRows() || bt.Truncated() != br.Truncated() {
				t.Fatalf("%s limit=%d: budget bytes=%d peak=%d truncated=%v, materialising bytes=%d peak=%d truncated=%v",
					name, limit, br.Bytes(), br.PeakRows(), br.Truncated(), bt.Bytes(), bt.PeakRows(), bt.Truncated())
			}
			if br.Truncated() != (limit > 0 && limit < full.N) {
				t.Fatalf("%s limit=%d of %d: Truncated=%v", name, limit, full.N, br.Truncated())
			}
			// Any column order is the same rows, permuted. (Not compared
			// with Project: the replicated input repeats rows.)
			swapped, err := res.Table([]int{want.Cols[1], want.Cols[0]})
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range swapped.Rows {
				if row[0] != want.Rows[i][1] || row[1] != want.Rows[i][0] {
					t.Fatalf("%s limit=%d: row %d permuted to %v from %v", name, limit, i, row, want.Rows[i])
				}
			}
		}
	}
}

// TestFetchResultBudgetKill: the factorised Fetch dies of the same typed
// kills as the materialising one — nothing it skips writing is skipped in
// the accounting.
func TestFetchResultBudgetKill(t *testing.T) {
	g := randomGraph(12, 60, 150, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	c := cond(g, "A", "B", 0, 1)
	in := extentOf(g, c.FromLabel, 0, 1)
	free := &Budget{}
	rt := new(Runtime)
	rt.SetBudget(free)
	full, err := rt.FetchResult(ctx, db, in, c)
	if err != nil || full.N < 4 {
		t.Fatalf("FetchResult: %v rows, %v", full, err)
	}
	if want := int64(full.N) * 2 * nodeIDBytes; free.Bytes() != want || free.PeakRows() != int64(full.N) {
		t.Fatalf("charged %d bytes, peak %d; want the %d rows' logical %d bytes", free.Bytes(), free.PeakRows(), full.N, want)
	}
	for _, tc := range []struct {
		rows  int
		bytes int64
		want  error
	}{
		{full.N - 1, 0, ErrRowLimit},
		{0, free.Bytes() - 1, ErrBudgetExceeded},
		{full.N, free.Bytes(), nil},
	} {
		rt := new(Runtime)
		rt.SetBudget(&Budget{MaxTableRows: tc.rows, MaxBytes: tc.bytes})
		if _, err := rt.FetchResult(ctx, db, in, c); !errors.Is(err, tc.want) {
			t.Fatalf("caps %d rows / %d bytes: %v, want %v", tc.rows, tc.bytes, err, tc.want)
		}
	}
}

// TestResultTableAndOrder covers the column-order contract: Order rejects
// anything but a permutation of the result's columns, a plain result in
// the requested order keeps its data (only row headers are new), and
// truncate re-slices the result's own list entry, never the shared list.
func TestResultTableAndOrder(t *testing.T) {
	shared := []graph.NodeID{7, 8, 9}
	r := &Result{
		Cols: []int{2, 0, 1},
		Data: []graph.NodeID{1, 2, 3, 4, 5, 6},
		Exp:  [][]graph.NodeID{shared, nil, shared[:2]},
		N:    5,
	}
	for _, bad := range [][]int{{0, 1}, {0, 1, 3}, {0, 1, 1}, {0, 1, 2, 2}} {
		if _, err := r.Order(bad); err == nil {
			t.Fatalf("Order(%v) over columns %v should fail", bad, r.Cols)
		}
	}
	got, err := r.Table([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]graph.NodeID{{2, 7, 1}, {2, 8, 1}, {2, 9, 1}, {6, 7, 5}, {6, 8, 5}}
	if !reflect.DeepEqual(got.Rows, want) || !reflect.DeepEqual(got.Cols, []int{0, 1, 2}) {
		t.Fatalf("Table = %v %v, want %v", got.Cols, got.Rows, want)
	}
	if !r.truncate(4) || r.N != 4 || len(r.Exp) != 3 || len(r.Exp[2]) != 1 || len(shared) != 3 {
		t.Fatalf("truncate(4): %+v", r)
	}
	if !r.truncate(3) || len(r.Data) != 2 || len(r.Exp) != 1 || r.truncate(3) || r.truncate(0) {
		t.Fatalf("truncate(3) on a list boundary: %+v", r)
	}
	plain := (&Table{Cols: []int{1, 0}, Rows: [][]graph.NodeID{{1, 2}}}).Result()
	same, err := plain.Table([]int{1, 0})
	if err != nil || &same.Rows[0][0] != &plain.Data[0] {
		t.Fatalf("a plain result in the requested order was copied (%v)", err)
	}
	if flipped, err := plain.Table([]int{0, 1}); err != nil || !reflect.DeepEqual(flipped.Rows, [][]graph.NodeID{{2, 1}}) {
		t.Fatalf("Table([0 1]) = %v, %v", flipped, err)
	}
}
