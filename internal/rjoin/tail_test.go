package rjoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/xmark"
)

// tailStep is one Fetch of a factorised tail: its condition, the node it
// binds and the filters it absorbs.
type tailStep struct {
	fetch   Cond
	node    int
	filters []NodeFilter
}

// runTail runs steps over a copy of in, as a factorised tail (each step
// FetchFiltered with factorise set) or step by step (each a Fetch written
// out, then its filters as operators), under a budget with the given caps
// and the limit pushed into the last step. It returns the result, the
// budget and each step's row count.
func runTail(db *gdb.Snap, in *Result, steps []tailStep, factorised bool, limit, maxRows int, maxBytes int64) (*Result, *Budget, []int, error) {
	ctx := context.Background()
	b := &Budget{ResultRows: limit, MaxTableRows: maxRows, MaxBytes: maxBytes}
	rt := new(Runtime)
	rt.SetBudget(b)
	t := clone(in)
	var rows []int
	for i, s := range steps {
		last := 0
		if i == len(steps)-1 {
			last = limit
		}
		var err error
		if factorised {
			rt.PushLimit(last)
			t, _, err = rt.FetchFiltered(ctx, db, t, s.fetch, s.filters, true)
		} else {
			t, _, err = stepwise(ctx, rt, db, t, s.fetch, s.node, s.filters, last)
		}
		if err != nil {
			return nil, b, rows, err
		}
		rows = append(rows, t.Len())
	}
	return t, b, rows, nil
}

// TestFetchResultTail: chained FetchResult/FetchFiltered steps over a
// factorised input — two and three of them, plain and absorbing a
// Selection on a prefix column and a semijoin group — are the step-by-step
// Fetches written out: the same rows in the same order, each step's row
// count, Bytes(), PeakRows() and Truncated at limits up to N+1, and the
// same typed kill at row caps up to the peak and across a byte sweep.
func TestFetchResultTail(t *testing.T) {
	g := randomGraph(43, 200, 240, 4)
	db := mustDB(t, g)
	ctx := context.Background()
	// The prefix binds A (0) and D (1), 12 of their pairs; the tail's
	// Fetches read only A and D.
	rt := new(Runtime)
	rt.PushLimit(12)
	in, err := rt.HPSJ(ctx, db, cond(g, "A", "D", 0, 1))
	if err != nil || in.N < 12 {
		t.Fatalf("prefix of %d rows, %v", in.N, err)
	}
	fetchB := tailStep{cond(g, "A", "B", 0, 2), 2, nil}
	fetchC := tailStep{cond(g, "A", "C", 0, 3), 3, nil}
	selC := tailStep{cond(g, "A", "C", 0, 3), 3, []NodeFilter{{Conds: []Cond{cond(g, "D", "C", 1, 3)}}}}
	semiB := tailStep{cond(g, "D", "B", 1, 4), 4, []NodeFilter{{Conds: []Cond{cond(g, "B", "A", 4, 5)}, Semijoin: true, OutSide: true}}}
	revA := tailStep{cond(g, "A", "D", 5, 1), 5, nil}
	for name, steps := range map[string][]tailStep{
		"K=2":                      {fetchB, fetchC},
		"K=2 selection":            {fetchB, selC},
		"K=3 semijoin":             {fetchB, semiB, fetchC},
		"K=3 reverse and filtered": {revA, fetchB, selC},
	} {
		want, _, _, err := runTail(db, in, steps, false, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := want.Len()
		if n < 50 {
			t.Fatalf("%s: %d rows prove nothing", name, n)
		}
		check := func(what string, limit, maxRows int, maxBytes int64) {
			t.Helper()
			w, wb, wrows, werr := runTail(db, in, steps, false, limit, maxRows, maxBytes)
			g, gb, grows, gerr := runTail(db, in, steps, true, limit, maxRows, maxBytes)
			for _, sentinel := range []error{ErrRowLimit, ErrBudgetExceeded} {
				if errors.Is(werr, sentinel) != errors.Is(gerr, sentinel) {
					t.Fatalf("%s %s: tail failed with %v, step by step with %v", name, what, gerr, werr)
				}
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s %s: tail %v, step by step %v", name, what, gerr, werr)
			}
			if gb.Bytes() != wb.Bytes() || gb.PeakRows() != wb.PeakRows() || gb.Truncated() != wb.Truncated() {
				t.Fatalf("%s %s: tail bytes=%d peak=%d truncated=%v, step by step bytes=%d peak=%d truncated=%v",
					name, what, gb.Bytes(), gb.PeakRows(), gb.Truncated(), wb.Bytes(), wb.PeakRows(), wb.Truncated())
			}
			if werr != nil {
				return
			}
			if g.K != len(steps) && g.N > 0 || !reflect.DeepEqual(grows, wrows) {
				t.Fatalf("%s %s: %d expanded columns, step rows %v, step by step %v", name, what, g.K, grows, wrows)
			}
			if got := tab(g); got.Len() != w.Len() || w.Len() > 0 && !reflect.DeepEqual(got.Rows, tab(w).Rows) {
				t.Fatalf("%s %s: %d rows, step by step %d", name, what, got.Len(), w.Len())
			}
		}
		for _, limit := range sweep(n) {
			check(fmt.Sprintf("limit=%d", limit), limit, 0, 0)
		}
		_, free, _, _ := runTail(db, in, steps, false, 0, 0, 0)
		for _, rows := range sweep(int(free.PeakRows())) {
			check(fmt.Sprintf("row cap %d", rows), 0, rows, 0)
			check(fmt.Sprintf("row cap %d limit %d", rows, n/3), n/3, rows, 0)
		}
		for i := int64(0); i <= 64; i++ {
			c := 1 + free.Bytes()*i/64
			check(fmt.Sprintf("byte cap %d", c), 0, 0, c)
			check(fmt.Sprintf("byte cap %d limit %d", c, n/3), n/3, 0, c)
		}
	}
}

// sweep is every count from 1 to 200, then 100 more spread to n, and n's
// neighbours.
func sweep(n int) []int {
	var out []int
	for v := 1; v <= min(n+1, 200); v++ {
		out = append(out, v)
	}
	if n+1 > 200 {
		for i := 1; i <= 100; i++ {
			out = append(out, 200+(n-200)*i/100)
		}
		out = append(out, n-1, n, n+1)
	}
	return out
}

// BenchmarkFactorisedTail times the served F7 and T9 shapes' last two
// Fetches over their prefix as a factorised tail and written out — the
// first Fetch writing its rows, the last keeping its lists, as a plan ran
// them before tails — in ns per result row and B/op. F7 is read_fastpath's
// site->name; site->description with the served limit of 10,000 rows; T9 is
// person->watches and interest->category over (person, profile, interest).
func BenchmarkFactorisedTail(b *testing.B) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 7}).Graph
	dbx, err := gdb.Build(g, gdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	ctx := context.Background()

	t9, err := Fetch(ctx, db, extentOf(g, g.Labels().Lookup("person"), 0, 1), cond(g, "person", "profile", 0, 1))
	if err == nil {
		t9, err = Fetch(ctx, db, t9, cond(g, "profile", "interest", 1, 2))
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct {
		name  string
		in    *Result
		steps []Cond
		limit int
	}{
		{"F7", extentOf(g, g.Labels().Lookup("site"), 0, 1),
			[]Cond{cond(g, "site", "description", 0, 1), cond(g, "site", "name", 0, 2)}, 10000},
		{"T9", t9, []Cond{cond(g, "person", "watches", 0, 3), cond(g, "interest", "category", 2, 4)}, 0},
	} {
		run := func(tail bool) (*Result, error) {
			rt := new(Runtime)
			t := q.in
			for i, c := range q.steps {
				last := i == len(q.steps)-1
				if last {
					rt.PushLimit(q.limit)
				}
				var err error
				if t, _, err = rt.FetchFiltered(ctx, db, t, c, nil, tail || last); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
		want, err := run(false)
		if err != nil || want.N == 0 {
			b.Fatalf("%s: %v", q.name, err)
		}
		for _, v := range []struct {
			name string
			tail bool
		}{{"tail", true}, {"written", false}} {
			b.Run(q.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, err := run(v.tail); err != nil || res.N != want.N {
						b.Fatalf("%v rows, want %d (%v)", res, want.N, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*want.N), "ns/row")
			})
		}
	}
}
