package rjoin

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"
	"unsafe"

	"fastmatch/internal/graph"
	"fastmatch/internal/xmark"
)

// TestFetchResultMatchesFetch: the factorised Fetch and the materialising
// one are the same operator. Forward and reverse, unlimited and with the
// limit at 1, inside a partner list, exactly on a list boundary, at N and
// past it, FetchResult written out equals Fetch's rows (the unlimited
// prefix), in any column order, and the budget saw the same bytes, peak
// and truncation. So do T6-shaped tails of three (checkT6Tails).
func TestFetchResultMatchesFetch(t *testing.T) {
	checkT6Tails(t)

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
		if full.K() != 1 || full.N < 100 || full.prefixRows() != in.N || &full.Data[0] != &in.Data[0] {
			t.Fatalf("%s: unlimited FetchResult is not factorised over its input: %d rows, %d prefixes", name, full.N, full.prefixRows())
		}
		// The first list of two or more rows with rows after it gives a limit
		// inside a list and one exactly on its end.
		inside, boundary := 0, 0
		wk, n := full.Walk(), 0
		for boundary == 0 && wk.Next() {
			if l := len(wk.Run()); l >= 2 && n > 0 {
				inside, boundary = n+1, n+l
			}
			n += len(wk.Run())
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

// checkT6Tails holds tails of FetchResult steps over a factorised input, on
// XMark, against the step-by-step Fetches written out (checkTail): T6's
// tail — K = 3, reading both prefix columns, two of its Fetches 1:1 — and
// the same tail with its last Fetch absorbing a Selection. That column
// keeps its survivors and would hang beside name's, so its Fetch writes
// the rows of name and city out and the result keeps one column over them.
func checkT6Tails(t *testing.T) {
	g := xmark.Generate(xmark.Config{Nodes: 1500, Seed: 5}).Graph
	db := mustDB(t, g)
	// T6 is person->name; person->address; address->city;
	// address->country: the prefix binds person (0) and address (1).
	in, err := Fetch(context.Background(), db, extentOf(g, g.Labels().Lookup("person"), 0, 1), cond(g, "person", "address", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	name := tailStep{cond(g, "person", "name", 0, 2), 2, nil}
	city := tailStep{cond(g, "address", "city", 1, 3), 3, nil}
	country := tailStep{cond(g, "address", "country", 1, 4), 4, nil}
	checked := tailStep{cond(g, "address", "country", 1, 4), 4, []NodeFilter{{Conds: []Cond{cond(g, "person", "country", 0, 4)}}}}
	for name, tc := range map[string]struct {
		steps   []tailStep
		parents []int
	}{
		"T6":               {[]tailStep{name, city, country}, nil},
		"T6 last filtered": {[]tailStep{name, city, checked}, []int{-1}},
	} {
		full, _, _, err := runTail(db, in, tc.steps, true, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		prefix, _, _, err := runTail(db, in, tc.steps[:len(tc.steps)-len(full.exp)], false, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// city and country are 1:1 expansions of the address; name is not
		// (a person reaches the names its references lead to).
		wk := full.Walk()
		for wk.Next() {
			if l := wk.lists[:len(wk.r.exp)]; len(l[len(l)-1]) != 1 || len(l) == 3 && len(l[1]) != 1 {
				t.Fatalf("%s: prefix row %d expands to %d lists ending in %d countries", name, wk.Row(), len(l), len(l[len(l)-1]))
			}
		}
		if full.prefixRows() != prefix.N {
			t.Fatalf("%s: %d prefix rows of %d", name, full.prefixRows(), prefix.N)
		}
		checkTail(t, db, in, name, tc.steps, tc.parents, 50)
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
// truncate drops the prefix rows past the cut and leaves every list,
// shared or not, as it was: N stops the consumer inside the last one.
func TestResultTableAndOrder(t *testing.T) {
	shared := []graph.NodeID{7, 8, 9}
	r := factorised([]int{2, 0, 1}, []graph.NodeID{1, 2, 3, 4, 5, 6}, 1, [][]graph.NodeID{shared, nil, shared[:2]}, 5)
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
	if !r.truncate(4) || r.N != 4 || r.prefixRows() != 3 || !reflect.DeepEqual(walkLists(r), [][]graph.NodeID{shared, shared[:2]}) || len(shared) != 3 {
		t.Fatalf("truncate(4): %+v", r)
	}
	if cut, err := r.Table([]int{0, 1, 2}); err != nil || !reflect.DeepEqual(cut.Rows, want[:4]) {
		t.Fatalf("Table after truncate(4) = %v, %v", cut, err)
	}
	if !r.truncate(3) || len(r.Data) != 2 || r.prefixRows() != 1 || r.truncate(3) || r.truncate(0) {
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

// walkLists returns the lists a walk of r yields, K per prefix row that
// stands for rows.
func walkLists(r *Result) [][]graph.NodeID {
	var out [][]graph.NodeID
	wk := r.Walk()
	for wk.Next() {
		out = append(out, wk.lists[:len(wk.r.exp)]...)
	}
	return out
}

// TestFactorisedFootprint pins what a factorised result holds besides its
// prefix rows and the survivors of absorbed filters: for T6's tail on
// XMark, nothing per prefix row in a column that re-reads its partner
// table, and one 4-byte length per prefix row in one that keeps
// survivors — at most 4 bytes per prefix row and column in all. The three
// tail Fetches together allocate no more than that per prefix row either,
// plus a constant: none copies an earlier column. A Selection absorbed by
// the first Fetch keeps the same footprint; absorbed by the last, its
// column would hang beside name's, and the Fetch writes the rows before it
// out — one column over those rows, whatever that allocates. A Walker,
// declared on the stack of every consumer, holds no more than a kilobyte.
func TestFactorisedFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Walker{}); size > 1024 {
		t.Fatalf("a Walker is %d bytes", size)
	}
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 5}).Graph
	db := mustDB(t, g)
	ctx := context.Background()
	in, err := Fetch(ctx, db, extentOf(g, g.Labels().Lookup("person"), 0, 1), cond(g, "person", "address", 0, 1))
	if err != nil || in.N < 500 {
		t.Fatalf("T6 prefix: %d rows, %v", in.N, err)
	}
	name := tailStep{cond(g, "person", "name", 0, 2), 2, nil}
	city := tailStep{cond(g, "address", "city", 1, 3), 3, nil}
	country := tailStep{cond(g, "address", "country", 1, 4), 4, nil}
	checked := tailStep{cond(g, "address", "country", 1, 4), 4, []NodeFilter{{Conds: []Cond{cond(g, "person", "country", 0, 4)}}}}
	for _, tc := range []struct {
		name  string
		steps []tailStep
		k     int
	}{
		{"T6", []tailStep{name, city, country}, 3},
		{"T6 first filtered", []tailStep{checked, name, city}, 3},
		{"T6 last filtered", []tailStep{name, city, checked}, 1},
	} {
		run := func() *Result {
			rt, r := new(Runtime), in
			for _, s := range tc.steps {
				var err error
				if r, _, err = rt.FetchFiltered(ctx, db, r, s.fetch, s.filters, true); err != nil {
					t.Fatal(err)
				}
			}
			return r
		}
		res := run() // fills the partner slots
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		res = run()
		goruntime.ReadMemStats(&after)
		rows, k := res.prefixRows(), res.K()
		if shared := &res.Data[0] == &in.Data[0]; k != tc.k || shared != (k == 3) || shared && rows != in.N {
			t.Fatalf("%s: K = %d over %d prefix rows of %d, shared %v", tc.name, k, rows, in.N, shared)
		}
		if k < 3 {
			continue
		}
		held, survivors := 0, 0
		for j, c := range res.exp {
			if c.stored != (len(tc.steps[j].filters) > 0) {
				t.Fatalf("%s: column %d stored=%v", tc.name, j, c.stored)
			}
			held += 4 * cap(c.lens)
			for _, ch := range c.chunks {
				survivors += 4 * cap(ch)
			}
		}
		if held > 4*rows*k {
			t.Fatalf("%s: columns hold %d bytes over %d prefix rows, K = %d", tc.name, held, rows, k)
		}
		// The operators' fixed state: Results, columns, counts, readers
		// and the survivors' chunk headers.
		const fixed = 8 << 10
		alloc := int(after.TotalAlloc - before.TotalAlloc)
		if alloc > 4*rows*k+survivors+fixed {
			t.Fatalf("%s: the tail allocated %d bytes for %d prefix rows (%d in survivors); a list header per row would be %d",
				tc.name, alloc, rows, survivors, 24*rows*k)
		}
		t.Logf("%s: %d prefix rows, %d bytes of lengths, %d of survivors, %d allocated, columns of %d bytes",
			tc.name, rows, held, survivors, alloc, int(unsafe.Sizeof(expanded{})))
	}
}

// factorised builds a factorised result whose k expanded columns' lists
// depend on the prefix row in data alone: prefix row i's lists are
// lists[i*k:(i+1)*k], the j-th that of column Width()+j under every
// element of the column before it, and the result stands for the first n
// rows of their products.
func factorised(cols []int, data []graph.NodeID, k int, lists [][]graph.NodeID, n int) *Result {
	return Nested(cols, data, len(lists)/k, k, func(j, i int, _ []graph.NodeID) []graph.NodeID { return lists[i*k+j] }, n)
}

// TestNestedWalk holds the Walker against nested loops over up to six
// expanded columns whose lists — 0 to 3 entries — are chosen by the prefix
// row and the column's ancestors in a random forest, so that a chain of
// stored columns repeats a list under elements it does not depend on and
// skips under lists that empty, written out whole and cut at every row
// count.
func TestNestedWalk(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, k, rows := rng.Intn(3), 1+rng.Intn(6), 1+rng.Intn(4)
		parents := make([]int, k)
		for j := range parents {
			parents[j] = rng.Intn(j+1) - 1
		}
		pool := make([][]graph.NodeID, 1+rng.Intn(5))
		for p := range pool {
			for v := range rng.Intn(4) {
				pool[p] = append(pool[p], graph.NodeID(10*p+v))
			}
		}
		data := make([]graph.NodeID, rows*w)
		for i := range data {
			data[i] = graph.NodeID(100 + i)
		}
		list := func(j, i int, row []graph.NodeID) []graph.NodeID {
			h := uint64(i)*7 + uint64(j)*13
			for p := parents[j]; p >= 0; p = parents[p] {
				h = h*31 + uint64(row[w+p])
			}
			return pool[h%uint64(len(pool))]
		}
		var model [][]graph.NodeID
		row := make([]graph.NodeID, w+k)
		var enum func(i, j int)
		enum = func(i, j int) {
			if j == k {
				model = append(model, slices.Clone(row))
				return
			}
			for _, v := range list(j, i, row) {
				row[w+j] = v
				enum(i, j+1)
			}
		}
		for i := range rows {
			copy(row, data[i*w:(i+1)*w])
			enum(i, 0)
		}
		cols := make([]int, w+k)
		for j := range cols {
			cols[j] = j
		}
		for n := len(model); n >= min(1, len(model)); n-- {
			r := Nested(cols, data, rows, k, list, len(model))
			r.truncate(n)
			if got := tab(r); r.N != n || !slices.EqualFunc(got.Rows, model[:n], slices.Equal[[]graph.NodeID]) {
				t.Fatalf("seed %d: parents %v over %d prefix rows cut at %d: %v, nested loops %v", seed, parents, rows, n, got.Rows, model[:n])
			}
		}
	}
}
