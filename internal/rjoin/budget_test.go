package rjoin

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestBudgetNilSafety: every method is a no-op / pass on a nil *Budget, so
// unbudgeted operator paths need no guards.
func TestBudgetNilSafety(t *testing.T) {
	var b *Budget
	b.AddBytes(1 << 30)
	if err := b.ChargeBytes(1 << 30); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckBytes(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckRows(1 << 30); err != nil {
		t.Fatal(err)
	}
	b.NoteRows(7)
	b.MarkTruncated()
	if b.Truncated() || b.Bytes() != 0 || b.PeakRows() != 0 {
		t.Fatalf("nil budget reported state: truncated=%v bytes=%d peak=%d",
			b.Truncated(), b.Bytes(), b.PeakRows())
	}
}

func TestBudgetChecks(t *testing.T) {
	b := &Budget{MaxTableRows: 10, MaxBytes: 100}
	if err := b.CheckRows(10); err != nil {
		t.Fatalf("at the row cap: %v", err)
	}
	if err := b.CheckRows(11); !errors.Is(err, ErrRowLimit) {
		t.Fatalf("over the row cap: got %v, want ErrRowLimit", err)
	}
	b.AddBytes(100)
	if err := b.CheckBytes(); err != nil {
		t.Fatalf("at the byte cap: %v", err)
	}
	if err := b.ChargeBytes(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over the byte cap: got %v, want ErrBudgetExceeded", err)
	}
	if b.Bytes() != 101 {
		t.Fatalf("Bytes() = %d, want 101", b.Bytes())
	}
	b.NoteRows(3)
	b.NoteRows(9)
	b.NoteRows(4)
	if b.PeakRows() != 9 {
		t.Fatalf("PeakRows() = %d, want 9", b.PeakRows())
	}
	if b.Truncated() {
		t.Fatal("Truncated() before MarkTruncated")
	}
	b.MarkTruncated()
	if !b.Truncated() {
		t.Fatal("Truncated() after MarkTruncated")
	}
}

// TestOperatorBudgetKill: each operator dies with the typed error once its
// output exceeds the budget, on the decoded and the counted-I/O read path.
func TestOperatorBudgetKill(t *testing.T) {
	g := randomGraph(11, 60, 150, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	c := cond(g, "A", "B", 0, 1)

	full, err := HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4 {
		t.Fatalf("graph too sparse for the test: %d join rows", full.Len())
	}

	for _, countIO := range []bool{false, true} {
		budgeted := func(b *Budget) *Runtime {
			rt := new(Runtime)
			if countIO {
				rt.CountIO()
			}
			rt.SetBudget(b)
			return rt
		}
		t.Run("rows", func(t *testing.T) {
			rt := budgeted(&Budget{MaxTableRows: full.Len() - 1})
			if _, err := rt.HPSJ(ctx, db, c); !errors.Is(err, ErrRowLimit) {
				t.Fatalf("countIO=%v: got %v, want ErrRowLimit", countIO, err)
			}
		})
		t.Run("bytes", func(t *testing.T) {
			rt := budgeted(&Budget{MaxBytes: 16})
			if _, err := rt.HPSJ(ctx, db, c); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("countIO=%v: got %v, want ErrBudgetExceeded", countIO, err)
			}
		})
		t.Run("fetch-rows", func(t *testing.T) {
			rt := budgeted(&Budget{MaxTableRows: full.Len() - 1})
			in := extentOf(g, c.FromLabel, 0, 1)
			if _, err := rt.Fetch(ctx, db, in, c); !errors.Is(err, ErrRowLimit) {
				t.Fatalf("countIO=%v: got %v, want ErrRowLimit", countIO, err)
			}
		})
	}

	// A budget the query fits inside leaves the result untouched and
	// accumulates accounting.
	rt := new(Runtime)
	b := &Budget{MaxTableRows: full.Len() + 10, MaxBytes: 1 << 30}
	rt.SetBudget(b)
	got, err := rt.HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != full.Len() {
		t.Fatalf("budgeted rows %d != unbudgeted %d", got.Len(), full.Len())
	}
	if b.Bytes() <= 0 || b.PeakRows() != int64(full.Len()) {
		t.Fatalf("accounting: bytes=%d peak=%d (want >0, %d)", b.Bytes(), b.PeakRows(), full.Len())
	}
	if b.Truncated() {
		t.Fatal("Truncated set without a row limit")
	}
}

// TestLimitPushdownPrefix: with a pushed-down result limit each operator
// returns exactly the first n rows of its unlimited output and marks the
// budget truncated.
func TestLimitPushdownPrefix(t *testing.T) {
	g := randomGraph(12, 60, 150, 3)
	db := mustDB(t, g)
	ctx := context.Background()
	c := cond(g, "A", "B", 0, 1)

	full, err := HPSJ(ctx, db, c)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 5 {
		t.Fatalf("graph too sparse for the test: %d join rows", full.Len())
	}
	in := extentOf(g, c.FromLabel, 0, 1)
	fullFetch, err := Fetch(ctx, db, in, c)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, full.Len() - 1, full.Len(), full.Len() + 5} {
		rt := new(Runtime)
		b := &Budget{ResultRows: n}
		rt.SetBudget(b)
		rt.PushLimit(n)
		got, err := rt.HPSJ(ctx, db, c)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(n, full.Len())
		if got.Len() != wantLen {
			t.Fatalf("limit=%d: %d rows, want %d", n, got.Len(), wantLen)
		}
		if !reflect.DeepEqual(got.Data, full.Data[:2*wantLen]) {
			t.Fatalf("limit=%d: rows are not the unlimited prefix", n)
		}
		if wantTrunc := n < full.Len(); b.Truncated() != wantTrunc {
			t.Fatalf("limit=%d: Truncated=%v, want %v", n, b.Truncated(), wantTrunc)
		}
	}

	// Fetch: same prefix property, stopping at whole input rows.
	for _, n := range []int{1, 3, fullFetch.Len()} {
		rt := new(Runtime)
		b := &Budget{ResultRows: n}
		rt.SetBudget(b)
		rt.PushLimit(n)
		got, err := rt.Fetch(ctx, db, in, c)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(n, fullFetch.Len())
		if got.Len() != wantLen || !reflect.DeepEqual(got.Data, fullFetch.Data[:2*wantLen]) {
			t.Fatalf("Fetch limit=%d: not the unlimited prefix (%d rows, want %d)", n, got.Len(), wantLen)
		}
	}
}
