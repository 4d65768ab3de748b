package rjoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
// same typed kill at row caps up to the peak and across a byte sweep. A
// Selection's column hangs under the prefix row: after a sibling its
// Fetch writes its input out, and the result keeps that one column.
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
	for name, tc := range map[string]struct {
		steps   []tailStep
		parents []int
	}{
		"K=2":                         {[]tailStep{fetchB, fetchC}, nil},
		"K=2 selection first":         {[]tailStep{selC, fetchB}, nil},
		"selection after a sibling":   {[]tailStep{fetchB, selC}, []int{-1}},
		"K=3 semijoin":                {[]tailStep{fetchB, semiB, fetchC}, nil},
		"reverse, then filtered last": {[]tailStep{revA, fetchB, selC}, []int{-1}},
	} {
		checkTail(t, db, in, name, tc.steps, tc.parents, 50)
	}
}

// TestNestedTail: chains of Fetches whose columns nest — each hanging under
// the column of the node it reads — are the step-by-step run (checkTail:
// rows, order, per-step counts, Bytes(), PeakRows(), Truncated and typed
// kills across limit, row-cap and byte-cap sweeps, the limits falling
// inside nested lists and on their ends), and each column hangs where it
// should: P8's path of four Fetches, Q1's chain whose last Fetch absorbs a
// Selection on an ancestor column, siblings under an expanded column (T6,
// T9), and columns re-reading filtered tables under an outer sibling and
// a column that sibling is no ancestor of; a Fetch reading two branches,
// and one keeping survivors beside an outer sibling, write their input
// out first.
func TestNestedTail(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 3000, Seed: 5}).Graph
	db := mustDB(t, g)
	ext := func(label string, node int) *Result { return extentOf(g, g.Labels().Lookup(label), node, 1) }
	semi := func(from, to string, f, tn int, out bool) []NodeFilter {
		return []NodeFilter{{Conds: []Cond{cond(g, from, to, f, tn)}, Semijoin: true, OutSide: out}}
	}
	sel := func(from, to string, f, tn int) []NodeFilter {
		return []NodeFilter{{Conds: []Cond{cond(g, from, to, f, tn)}}}
	}
	for _, tc := range []struct {
		name    string
		in      *Result
		steps   []tailStep
		parents []int
	}{
		{"P8 path", ext("site", 0), []tailStep{
			{cond(g, "site", "people", 0, 1), 1, nil},
			{cond(g, "people", "person", 1, 2), 2, semi("person", "profile", 2, 9, true)},
			{cond(g, "person", "profile", 2, 3), 3, semi("profile", "interest", 3, 8, true)},
			{cond(g, "profile", "interest", 3, 4), 4, nil},
		}, []int{-1, 0, 1, 2}},
		{"Q1 chain", ext("category", 3), []tailStep{
			{cond(g, "item", "category", 1, 3), 1, semi("site", "item", 0, 1, false)},
			{cond(g, "site", "item", 0, 1), 0, semi("site", "person", 0, 2, true)},
			{cond(g, "person", "category", 2, 3), 2, sel("site", "person", 0, 2)},
		}, []int{-1, 0, 1}},
		{"T6 siblings", ext("person", 0), []tailStep{
			{cond(g, "person", "address", 0, 1), 1, semi("address", "city", 1, 9, true)},
			{cond(g, "address", "city", 1, 2), 2, nil},
			{cond(g, "address", "country", 1, 3), 3, nil},
			{cond(g, "person", "name", 0, 4), 4, nil},
		}, []int{-1, 0, 0, -1}},
		{"T9 siblings", ext("person", 0), []tailStep{
			{cond(g, "person", "profile", 0, 1), 1, semi("profile", "interest", 1, 9, true)},
			{cond(g, "profile", "interest", 1, 2), 2, semi("interest", "category", 2, 8, true)},
			{cond(g, "person", "watches", 0, 3), 3, nil},
			{cond(g, "interest", "category", 2, 4), 4, nil},
		}, []int{-1, 0, -1, 1}},
		{"stored under an outer sibling", ext("person", 0), []tailStep{
			{cond(g, "person", "watches", 0, 1), 1, nil},
			{cond(g, "person", "profile", 0, 2), 2, semi("profile", "interest", 2, 9, true)},
			{cond(g, "profile", "interest", 2, 3), 3, semi("interest", "category", 3, 8, true)},
			{cond(g, "interest", "category", 3, 4), 4, nil},
		}, []int{-1, -1, 1, 2}},
	} {
		checkTail(t, db, tc.in, tc.name, tc.steps, tc.parents, 50)
	}
	// On a random DAG: D fetched from B absorbs a Selection on C, a sibling
	// of B — only rows hold both — and E hangs under D after that.
	dag := fusedDAG(7, 400, 1200)
	ddb := mustDB(t, dag)
	checkTail(t, ddb, extentOf(dag, dag.Labels().Lookup("A"), 0, 1), "two branches", []tailStep{
		{cond(dag, "A", "B", 0, 1), 1, nil},
		{cond(dag, "A", "C", 0, 2), 2, nil},
		{cond(dag, "B", "D", 1, 3), 3, []NodeFilter{{Conds: []Cond{cond(dag, "C", "D", 2, 3)}}}},
		{cond(dag, "D", "E", 3, 4), 4, nil},
	}, []int{-1, 0}, 50)
	// A column stored under the prefix row after a sibling whose child is
	// empty for some of its elements: the walk skips those, and the stored
	// column must resume past the block it re-read for them.
	checkTail(t, ddb, extentOf(dag, dag.Labels().Lookup("A"), 0, 1), "stored after an empty child", []tailStep{
		{cond(dag, "A", "B", 0, 1), 1, nil},
		{cond(dag, "B", "C", 1, 2), 2, nil},
		{cond(dag, "A", "D", 0, 3), 3, []NodeFilter{{Conds: []Cond{cond(dag, "D", "E", 3, 4)}, Semijoin: true, OutSide: true}}},
		{cond(dag, "D", "E", 3, 5), 5, nil},
	}, []int{-1, 0, -1, 2}, 50)
	// A column that keeps survivors hangs under every column before it: one
	// beside an outer sibling writes the rows of (person, watches) out and
	// keeps a block per row.
	steps := []tailStep{
		{cond(g, "person", "watches", 0, 1), 1, nil},
		{cond(g, "person", "profile", 0, 2), 2, sel("person", "profile", 0, 2)},
	}
	res, _, rows, err := runTail(db, ext("person", 0), steps, true, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 1 || res.Width() != 2 || res.prefixRows() != rows[0] || len(res.exp[0].lens) != rows[0] || res.exp[0].parent != -1 {
		t.Fatalf("profile beside watches: K = %d over %d prefix rows of width %d, %d blocks; (person, watches) has %d rows",
			res.K(), res.prefixRows(), res.Width(), len(res.exp[0].lens), rows[0])
	}
	checkTail(t, db, ext("person", 0), "stored beside an outer sibling", steps, []int{-1}, 50)
}

// TestFlattenFilters: a semijoin group or Selection over a factorised
// result is the step-by-step filter over it written out — on prefix
// columns of a result whose columns store nothing (a Fetch's folded
// semijoin groups store nothing either) it drops whole prefix rows and
// keeps the rest factorised; otherwise it writes the result out.
func TestFlattenFilters(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 3000, Seed: 5}).Graph
	db := mustDB(t, g)
	ctx := context.Background()
	ext := func(label string) *Result { return extentOf(g, g.Labels().Lookup(label), 0, 1) }
	mailIn := []Cond{cond(g, "mailbox", "mail", 9, 0)}
	for _, tc := range []struct {
		name       string
		steps      []tailStep
		filter     func(rt *Runtime, r *Result) (*Result, error)
		factorised bool
	}{
		{"T5 semijoin on the prefix", []tailStep{{cond(g, "mail", "from", 0, 1), 1, nil}, {cond(g, "mail", "to", 0, 2), 2, nil}},
			func(rt *Runtime, r *Result) (*Result, error) { return rt.FilterGroup(ctx, db, r, mailIn, 0, false) }, true},
		{"semijoin on an expanded column", []tailStep{{cond(g, "mail", "from", 0, 1), 1, nil}},
			func(rt *Runtime, r *Result) (*Result, error) {
				return rt.FilterGroup(ctx, db, r, []Cond{cond(g, "mailbox", "from", 9, 1)}, 1, false)
			}, false},
		{"semijoin on the prefix beside a folded column", []tailStep{{cond(g, "mail", "from", 0, 1), 1, []NodeFilter{{Conds: []Cond{cond(g, "mailbox", "from", 9, 1)}, Semijoin: true}}}},
			func(rt *Runtime, r *Result) (*Result, error) { return rt.FilterGroup(ctx, db, r, mailIn, 0, false) }, true},
		{"semijoin on the prefix beside a stored column", []tailStep{{cond(g, "mail", "from", 0, 1), 1, []NodeFilter{
			{Conds: []Cond{cond(g, "mailbox", "from", 9, 1)}, Semijoin: true}, {Conds: []Cond{cond(g, "mail", "from", 0, 1)}}}}},
			func(rt *Runtime, r *Result) (*Result, error) { return rt.FilterGroup(ctx, db, r, mailIn, 0, false) }, false},
		{"selection across columns", []tailStep{{cond(g, "mail", "from", 0, 1), 1, nil}},
			func(rt *Runtime, r *Result) (*Result, error) {
				return rt.Selection(ctx, db, r, cond(g, "mail", "from", 0, 1))
			}, false},
	} {
		for _, limit := range []int{0, 1, 7, 100} {
			b, bw := &Budget{ResultRows: limit}, &Budget{ResultRows: limit}
			rt, rtw := new(Runtime), new(Runtime)
			rt.SetBudget(b)
			rtw.SetBudget(bw)
			got, want := ext("mail"), ext("mail")
			var err error
			for _, s := range tc.steps {
				if got, _, err = rt.FetchFiltered(ctx, db, got, s.fetch, s.filters, true); err != nil {
					t.Fatal(err)
				}
				if want, _, err = stepwise(ctx, rtw, db, want, s.fetch, s.node, s.filters, 0); err != nil {
					t.Fatal(err)
				}
			}
			rt.PushLimit(limit)
			rtw.PushLimit(limit)
			if got, err = tc.filter(rt, got); err != nil {
				t.Fatal(err)
			}
			if want, err = tc.filter(rtw, want); err != nil {
				t.Fatal(err)
			}
			if got.K() > 0 != tc.factorised || want.N < 20 && limit == 0 ||
				!reflect.DeepEqual(tab(got).Rows, tab(want).Rows) || b.Bytes() != bw.Bytes() || b.PeakRows() != bw.PeakRows() || b.Truncated() != bw.Truncated() {
				t.Fatalf("%s limit %d: K = %d, %d rows, step by step %d; bytes %d/%d peak %d/%d truncated %v/%v",
					tc.name, limit, got.K(), got.N, want.N, b.Bytes(), bw.Bytes(), b.PeakRows(), bw.PeakRows(), b.Truncated(), bw.Truncated())
			}
		}
	}
}

// checkTail holds steps run factorised over in against the same steps run
// step by step: the same rows in the same order, each step's row count,
// Bytes(), PeakRows() and Truncated at every limit of a sweep up to N+1,
// and the same typed kill at row caps up to the peak and across a byte
// sweep, with and without a limit. The unlimited result must have at least
// min rows. Its expanded columns are the last steps' — all of them unless
// parents, the parent each must hang under, names fewer — a column
// stores lists exactly when its Fetch absorbed a Selection (stores), and
// a stored column hangs under every column before it.
func checkTail(t *testing.T, db *gdb.Snap, in *Result, name string, steps []tailStep, parents []int, min int) {
	t.Helper()
	want, _, _, err := runTail(db, in, steps, false, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := want.Len()
	if n < min {
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
		k := len(steps)
		if parents != nil {
			k = len(parents)
		}
		if g.K() != k && g.N > 0 || !reflect.DeepEqual(grows, wrows) {
			t.Fatalf("%s %s: %d expanded columns, step rows %v, step by step %v", name, what, g.K(), grows, wrows)
		}
		chain := true
		for j, c := range g.exp {
			s := steps[len(steps)-k+j]
			if c.stored != stores(s.filters) || parents != nil && c.parent != parents[j] {
				t.Fatalf("%s %s: column %d stored=%v under %d with %d filters, want under %v", name, what, j, c.stored, c.parent, len(s.filters), parents)
			}
			if chain = chain && c.parent == j-1; c.stored && !chain {
				t.Fatalf("%s %s: stored column %d does not hang under every column before it", name, what, j)
			}
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

// stores reports whether a Fetch absorbing filters stores its column on the
// decoded read path: the leading semijoin groups fold into a filtered
// table it re-reads, and only a Selection makes it keep survivors.
func stores(filters []NodeFilter) bool {
	return slices.ContainsFunc(filters, func(f NodeFilter) bool { return !f.Semijoin })
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

// BenchmarkFactorisedTail times served shapes' Fetches over their prefix
// left factorised (tail) and with every Fetch but the last written out
// (written, as plans ran them before their columns nested), in ns per
// result row and B/op, the per-query work. F7 is read_fastpath's
// site->name; site->description with the served limit of 10,000 rows; T9
// is person->watches and interest->category over (person, profile,
// interest); T5 is mail->from and mail->to over (item, mailbox, mail) and
// T6 person->name, address->city and address->country over (person,
// address): 1:1 expansions, K = 2 and 3. P8 is the path
// site->people->person->profile->interest from the site extent, each
// Fetch absorbing the semijoin group on its node, and Q1 the chain from
// the category extent whose last Fetch absorbs a Selection on the site
// column two levels up, as the served plans run them. Fetch/flatten is a
// flatten point: T6's person->address over the person extent, written out.
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
	ext := func(label string, node int) *Result { return extentOf(g, g.Labels().Lookup(label), node, 1) }
	semi := func(from, to string, f, tn int, out bool) []NodeFilter {
		return []NodeFilter{{Conds: []Cond{cond(g, from, to, f, tn)}, Semijoin: true, OutSide: out}}
	}
	plain := func(conds ...Cond) []tailStep {
		var steps []tailStep
		for _, c := range conds {
			steps = append(steps, tailStep{fetch: c})
		}
		return steps
	}

	// prefix runs steps written out over label's extent, bound to node 0.
	prefix := func(label string, steps []tailStep) *Result {
		t, _, _, err := runTail(db, ext(label, 0), steps, false, 0, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	t9 := prefix("person", plain(cond(g, "person", "profile", 0, 1), cond(g, "profile", "interest", 1, 2)))
	t5 := prefix("item", plain(cond(g, "item", "mailbox", 0, 1), cond(g, "mailbox", "mail", 1, 2)))
	t6 := prefix("person", plain(cond(g, "person", "address", 0, 1)))
	for _, q := range []struct {
		name     string
		in       *Result
		steps    []tailStep
		limit    int
		variants []string
	}{
		{"F7", ext("site", 0), plain(cond(g, "site", "description", 0, 1), cond(g, "site", "name", 0, 2)), 10000, []string{"tail", "written"}},
		{"T9", t9, plain(cond(g, "person", "watches", 0, 3), cond(g, "interest", "category", 2, 4)), 0, []string{"tail", "written"}},
		{"T5", t5, plain(cond(g, "mail", "from", 2, 3), cond(g, "mail", "to", 2, 4)), 0, []string{"tail", "written"}},
		{"T6", t6, plain(cond(g, "person", "name", 0, 2), cond(g, "address", "city", 1, 3), cond(g, "address", "country", 1, 4)), 0, []string{"tail", "written"}},
		{"P8", ext("site", 0), []tailStep{
			{fetch: cond(g, "site", "people", 0, 1), filters: semi("people", "person", 1, 9, true)},
			{fetch: cond(g, "people", "person", 1, 2), filters: semi("person", "profile", 2, 8, true)},
			{fetch: cond(g, "person", "profile", 2, 3), filters: semi("profile", "interest", 3, 7, true)},
			{fetch: cond(g, "profile", "interest", 3, 4)},
		}, 0, []string{"tail", "written"}},
		{"Q1", ext("category", 3), []tailStep{
			{fetch: cond(g, "item", "category", 1, 3), filters: semi("site", "item", 0, 1, false)},
			{fetch: cond(g, "site", "item", 0, 1), filters: semi("site", "person", 0, 2, true)},
			{fetch: cond(g, "person", "category", 2, 3), filters: []NodeFilter{{Conds: []Cond{cond(g, "site", "person", 0, 2)}}}},
		}, 0, []string{"tail", "written"}},
		{"Fetch", ext("person", 0), plain(cond(g, "person", "address", 0, 1)), 0, []string{"flatten"}},
	} {
		run := func(variant string) (*Result, error) {
			rt := new(Runtime)
			t := q.in
			for i, s := range q.steps {
				last := i == len(q.steps)-1
				if last {
					rt.PushLimit(q.limit)
				}
				var err error
				if t, _, err = rt.FetchFiltered(ctx, db, t, s.fetch, s.filters, variant == "tail" || variant == "written" && last); err != nil {
					return nil, err
				}
			}
			return t, nil
		}
		want, err := run("flatten")
		if err != nil || want.N == 0 {
			b.Fatalf("%s: %v", q.name, err)
		}
		for _, v := range q.variants {
			b.Run(q.name+"/"+v, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, err := run(v); err != nil || res.N != want.N {
						b.Fatalf("%v rows, want %d (%v)", res, want.N, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*want.N), "ns/row")
			})
		}
	}
}
