package rjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/workload"
	"fastmatch/internal/xmark"
)

// fusedDAG is a random DAG over labels A..E (edges run from lower to higher
// node IDs, so "c ⇝ a" can never hold for an a that reaches c) plus one
// isolated Z node, which makes W(C, Z) empty.
func fusedDAG(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(5))))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	b.AddNode("Z")
	return b.Build()
}

// fusedInput builds the tests' three-column input — (A, B, D) rows bound to
// pattern nodes 0, 1, 2 with a ⇝ b and a ⇝ d, replicated to a few thousand
// so the operator's loops cross several cancellation polls — and the Fetch
// that binds node 3 to the C nodes a row's b reaches. Node 4 (E) and node 5
// (Z) stay unbound.
func fusedInput(t testing.TB, g *graph.Graph, db *gdb.Snap) (*Result, Cond) {
	t.Helper()
	ctx := context.Background()
	in, err := HPSJ(ctx, db, cond(g, "A", "B", 0, 1))
	if err == nil {
		in, err = Fetch(ctx, db, in, cond(g, "A", "D", 0, 2))
	}
	if err != nil || in.Len() == 0 {
		t.Fatalf("fused input: %d rows, %v", in.Len(), err)
	}
	for in.N < 2048 {
		in.Data, in.N = append(in.Data, in.Data...), 2*in.N
	}
	return in, cond(g, "B", "C", 1, 3)
}

// stepwise is the unfused pipeline FetchFiltered replaces: Fetch, then one
// Selection or FilterGroup per filter, the row limit pushed into the last
// of them only. It returns the rows and the row count after every step.
func stepwise(ctx context.Context, rt *Runtime, db *gdb.Snap, t *Result, c Cond, newNode int, filters []NodeFilter, limit int) (*Result, []int, error) {
	if len(filters) == 0 {
		rt.PushLimit(limit)
	}
	out, err := rt.Fetch(ctx, db, t, c)
	if err != nil {
		return nil, nil, err
	}
	counts := []int{out.Len()}
	for i, f := range filters {
		if i == len(filters)-1 {
			rt.PushLimit(limit)
		}
		if f.Semijoin {
			out, err = rt.FilterGroup(ctx, db, out, f.Conds, newNode, f.OutSide)
		} else {
			out, err = rt.Selection(ctx, db, out, f.Conds[0])
		}
		if err != nil {
			return nil, nil, err
		}
		counts = append(counts, out.Len())
	}
	return out, counts, nil
}

// shuffled returns a copy of t with its rows in a random order, so that the
// values of every column recur out of order.
func shuffled(t *Result, seed int64) *Result {
	w := t.Width()
	out := &Result{Cols: t.Cols, Data: make([]graph.NodeID, 0, len(t.Data)), N: t.N}
	for _, i := range rand.New(rand.NewSource(seed)).Perm(t.N) {
		out.Data = append(out.Data, t.Data[i*w:(i+1)*w]...)
	}
	return out
}

// rankPaths counts how a fused Fetch with one Selection after its folded
// semijoin groups tests the rows that have candidates (see
// fetchFilters.apply): against the bitmap of the Selection's list (list),
// against the candidates' own bitmap (own), or with IntersectTo because
// the longer operand is below the size rule — the Selection's list
// (sparse) or the candidates (short) — because the candidates, long enough
// for a bitmap, belong to a value outside their table's bound label
// (foreign), or because the groups cut them down, so no bitmap of a
// partner-table list is theirs (cut).
type rankPaths struct{ list, own, sparse, short, foreign, cut int }

// censusPaths is rankPaths for the Fetch of in under fetch with the
// semijoin groups lead folded and then the Selection sel.
func censusPaths(t *testing.T, db *gdb.Snap, in *Result, fetch Cond, lead []NodeFilter, sel NodeFilter) rankPaths {
	t.Helper()
	boundNode, forward, err := boundSide(in, fetch)
	if err != nil {
		t.Fatal(err)
	}
	newNode, target, bound := fetch.ToNode, fetch.ToLabel, fetch.FromLabel
	if !forward {
		newNode, target, bound = fetch.FromNode, fetch.FromLabel, fetch.ToLabel
	}
	col := in.ColIndex(boundNode)
	fs, err := resolveFilters(db, in, newNode, target, append(slices.Clone(lead), sel))
	if err != nil {
		t.Fatal(err)
	}
	groups, fs := fs[:len(lead)], fs[len(lead):]
	rd := new(Runtime).open(db)
	partners, err := rd.partners(fetch, forward)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := new(Runtime).openFilters(rd, db, fs, fetch, forward, col)
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graph()
	minList := 2 * gdb.RankWords(g.ExtentSize(target))
	var p rankPaths
	for i := 0; i < in.N; i++ {
		row := in.Row(i)
		cur, err := partners(row[col])
		if err != nil {
			t.Fatal(err)
		}
		full := len(cur)
		for _, f := range groups {
			for _, set := range f.sets {
				cur = set.FilterTo(db.Ranks(), nil, cur)
			}
		}
		if len(cur) == 0 {
			continue
		}
		v := row[fs[0].col]
		other, err := pf.sel[0](v)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(cur) <= len(other) && pf.sets[0].Bitmap(v, other) != nil:
			p.list++
		case len(cur) <= len(other):
			p.sparse++
		case len(cur) < full:
			p.cut++
		case pf.own.Bitmap(row[col], cur) != nil:
			p.own++
		case g.LabelOf(row[col]) != bound && len(cur) >= minList:
			p.foreign++
		default:
			p.short++
		}
	}
	return p
}

// TestFetchFilteredMatchesStepwise: a Fetch that absorbs the filters on the
// node it binds is the Fetch followed by those filters — same rows, same
// order, same per-step counts, same budget — written out or left
// factorised, unlimited or limited, killed by its budget midway or not, and
// it never writes to a shared partner list. Its Selections take every
// path: the shorter operand bit-tested against the bitmap of the
// Selection's list or of the candidates, and IntersectTo where the longer
// one is below the size rule, where the candidates are no longer the
// Fetch's own list (a semijoin group or Selection filtered them first) and
// where the Fetch's bound value is of another label than its table's bound
// label. The bitmaps live in the epoch's partner tables, so later cases
// find them built; the shuffled input meets each bound value out of order.
func TestFetchFilteredMatchesStepwise(t *testing.T) {
	g := fusedDAG(7, 400, 1200)
	db := mustDB(t, g)
	ctx := context.Background()

	in, fetch := fusedInput(t, g, db)
	mixed := shuffled(in, 1)
	// foreign binds every third row's B column to its A value: a node
	// outside the bound label of the Fetch's table, whose partners are
	// computed and have no bitmap.
	foreign := &Result{Cols: in.Cols, Data: append([]graph.NodeID(nil), in.Data...), N: in.N}
	for i := 0; i < foreign.N; i += 3 {
		row := foreign.Row(i)
		row[1] = row[0]
	}
	selDC := NodeFilter{Conds: []Cond{cond(g, "D", "C", 2, 3)}}
	selCD := NodeFilter{Conds: []Cond{cond(g, "C", "D", 3, 2)}}
	selCA := NodeFilter{Conds: []Cond{cond(g, "C", "A", 3, 0)}} // a ⇝ b ⇝ c: never holds on a DAG
	selAC := NodeFilter{Conds: []Cond{cond(g, "A", "C", 0, 3)}} // always holds, for the same reason
	semiOut := NodeFilter{Conds: []Cond{cond(g, "C", "E", 3, 4)}, Semijoin: true, OutSide: true}
	semiIn := NodeFilter{Conds: []Cond{cond(g, "E", "C", 4, 3), cond(g, "D", "C", 2, 3)}, Semijoin: true}
	semiEmptyW := NodeFilter{Conds: []Cond{cond(g, "C", "E", 3, 4), cond(g, "C", "Z", 3, 5)}, Semijoin: true, OutSide: true}

	cases := []struct {
		name    string
		in      *Result
		filters []NodeFilter
		empties bool
	}{
		{"selection only", in, []NodeFilter{selDC}, false},
		{"reverse selection only", in, []NodeFilter{selCD}, false},
		{"semijoin group only", in, []NodeFilter{semiOut}, false},
		{"selection then groups", in, []NodeFilter{selDC, semiOut, semiIn}, false},
		{"groups then selection", in, []NodeFilter{semiIn, semiOut, selDC}, false},
		{"filter that empties every list", in, []NodeFilter{semiOut, selCA, semiIn}, true},
		{"group with empty W", in, []NodeFilter{semiEmptyW, selDC}, true},
		{"zero input rows", &Result{Cols: []int{0, 1, 2}}, []NodeFilter{selDC, semiOut}, true},
		{"shuffled selection", mixed, []NodeFilter{selDC}, false},
		{"shuffled reverse selection", mixed, []NodeFilter{selCD}, false},
		{"shuffled selection then groups", mixed, []NodeFilter{selDC, semiOut, semiIn}, false},
		{"shuffled groups then selection", mixed, []NodeFilter{semiIn, semiOut, selCD}, false},
		{"selection after a semijoin group", mixed, []NodeFilter{semiOut, selDC}, false},
		{"two semijoin groups", mixed, []NodeFilter{semiOut, semiIn}, false},
		{"two semijoin groups then a selection", mixed, []NodeFilter{semiOut, semiIn, selCD}, false},
		{"two selections", mixed, []NodeFilter{selDC, selAC}, false},
		{"two selections, the other order", mixed, []NodeFilter{selAC, selCD}, false},
		{"foreign fetch value", foreign, []NodeFilter{selDC}, false},
		{"foreign fetch value, reverse selection", foreign, []NodeFilter{selCD, semiOut}, false},
		{"foreign fetch value, folded group", foreign, []NodeFilter{semiIn}, false},
		{"foreign fetch value, folded group then selection", foreign, []NodeFilter{semiIn, selDC}, false},
	}
	for _, sel := range []NodeFilter{selDC, selCD} {
		p := censusPaths(t, db, mixed, fetch, nil, sel)
		if p.list == 0 || p.own == 0 || p.sparse == 0 || p.short == 0 || p.foreign != 0 || p.cut != 0 {
			t.Fatalf("%v over %d rows: paths %+v — not every path is taken", sel.Conds[0], mixed.N, p)
		}
		if p := censusPaths(t, db, foreign, fetch, nil, sel); p.foreign == 0 {
			t.Fatalf("%v over the foreign input: paths %+v — no foreign value has long candidates", sel.Conds[0], p)
		}
		// Folded runs of one and two groups before the Selection: the
		// candidates' own bitmap serves only lists the groups left whole
		// (one group leaves some; after two, none here is long enough).
		one, two := censusPaths(t, db, mixed, fetch, []NodeFilter{semiIn}, sel), censusPaths(t, db, mixed, fetch, []NodeFilter{semiIn, semiOut}, sel)
		if one.list == 0 || one.own == 0 || one.cut == 0 || two.list == 0 || two.cut == 0 {
			t.Fatalf("%v after folded groups: paths %+v after one, %+v after two — not every path is taken", sel.Conds[0], one, two)
		}
	}
	// The same filters on the first and on the middle Fetch of a K = 3
	// tail beside two plain Fetches, held against the step-by-step run
	// under limits and both caps. First, the result mixes columns that
	// re-read their partner tables with one that keeps survivors; in the
	// middle, a column that keeps survivors would hang beside the one
	// before it, so its Fetch writes its input out. The prefix is 12 input
	// rows with survivors and 4 spread over the input, most of them with
	// none.
	for _, filters := range [][]NodeFilter{{selDC, semiOut}, {semiIn, selCD}} {
		kept, _, err := stepwise(ctx, new(Runtime), db, clone(in), fetch, 3, filters, 0)
		if err != nil {
			t.Fatal(err)
		}
		prefix := &Result{Cols: in.Cols}
		seen := map[[3]graph.NodeID]bool{}
		for i := 0; i < kept.N && prefix.N < 12; i++ {
			if r := kept.Row(i); !seen[[3]graph.NodeID(r[:3])] {
				seen[[3]graph.NodeID(r[:3])] = true
				prefix.Data, prefix.N = append(prefix.Data, r[:3]...), prefix.N+1
			}
		}
		for i := 0; i < 4; i++ {
			prefix.Data, prefix.N = append(prefix.Data, in.Row(i*in.N/4)...), prefix.N+1
		}
		checkTail(t, db, prefix, fmt.Sprintf("tail %v first", filters), []tailStep{
			{fetch, 3, filters},
			{cond(g, "A", "D", 0, 6), 6, nil},
			{cond(g, "A", "B", 0, 5), 5, nil},
		}, nil, 50)
		checkTail(t, db, prefix, fmt.Sprintf("tail %v", filters), []tailStep{
			{cond(g, "A", "D", 0, 6), 6, nil},
			{fetch, 3, filters},
			{cond(g, "A", "B", 0, 5), 5, nil},
		}, []int{-1, -1}, 50)
	}
	for _, tc := range cases {
		unfiltered, err := Fetch(ctx, db, tc.in, fetch)
		if err != nil {
			t.Fatal(err)
		}
		full, fullCounts, err := stepwise(ctx, new(Runtime), db, tc.in, fetch, 3, tc.filters, 0)
		if err != nil {
			t.Fatalf("%s: stepwise: %v", tc.name, err)
		}
		if tc.empties != (full.Len() == 0) || !tc.empties && full.Len() == unfiltered.Len() {
			t.Fatalf("%s: filters keep %d of %d rows — the case proves nothing", tc.name, full.Len(), unfiltered.Len())
		}
		limits := []int{0, 1}
		if n := full.Len(); n > 0 {
			limits = append(limits, n/2, n, n+1)
		}
		for _, last := range []bool{false, true} {
			for _, limit := range limits {
				what := fmt.Sprintf("%s last=%v limit=%d", tc.name, last, limit)
				bw, bg := &Budget{ResultRows: limit}, &Budget{ResultRows: limit}
				rtW, rtG := new(Runtime), new(Runtime)
				rtW.SetBudget(bw)
				rtG.SetBudget(bg)
				want, wantCounts, err := stepwise(ctx, rtW, db, tc.in, fetch, 3, tc.filters, limit)
				if err != nil {
					t.Fatalf("%s: stepwise: %v", what, err)
				}
				rtG.PushLimit(limit)
				res, counts, err := rtG.FetchFiltered(ctx, db, tc.in, fetch, tc.filters, last)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if factorised := res.K() > 0; factorised != (last && counts[0] > 0) {
					t.Fatalf("%s: factorised=%v", what, factorised)
				}
				if res.K() > 0 && res.exp[0].stored != stores(tc.filters) {
					t.Fatalf("%s: the column stores its lists = %v", what, res.exp[0].stored)
				}
				got, err := res.Table(want.Cols)
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != res.N || !reflect.DeepEqual(got.Rows, tab(want).Rows) && (got.Len() != 0 || want.Len() != 0) {
					t.Fatalf("%s: %d rows, the stepwise pipeline %d", what, got.Len(), want.Len())
				}
				if limit == 0 && !reflect.DeepEqual(counts, wantCounts) {
					t.Fatalf("%s: per-step counts %v, stepwise %v", what, counts, wantCounts)
				}
				if counts[0] != fullCounts[0] {
					t.Fatalf("%s: Fetch's logical count %d, want %d", what, counts[0], fullCounts[0])
				}
				if bg.Bytes() != bw.Bytes() || bg.PeakRows() != bw.PeakRows() || bg.Truncated() != bw.Truncated() {
					t.Fatalf("%s: budget bytes=%d peak=%d truncated=%v, stepwise bytes=%d peak=%d truncated=%v",
						what, bg.Bytes(), bg.PeakRows(), bg.Truncated(), bw.Bytes(), bw.PeakRows(), bw.Truncated())
				}
				if st := rtG.Stats(); st.FusedFilters != int64(len(tc.filters)) || st.Ops != 1 {
					t.Fatalf("%s: stats %+v, want one operator and %d fused filters", what, st, len(tc.filters))
				}
				if rtW.Stats().FusedFilters != 0 {
					t.Fatalf("%s: the stepwise pipeline counted fused filters", what)
				}
			}
			// A row cap at half the Fetch's output kills both runs midway,
			// on the same row and with the same charge.
			if fullCounts[0] < 2 {
				continue
			}
			bw, bg := &Budget{MaxTableRows: fullCounts[0] / 2}, &Budget{MaxTableRows: fullCounts[0] / 2}
			rtW, rtG := new(Runtime), new(Runtime)
			rtW.SetBudget(bw)
			rtG.SetBudget(bg)
			_, _, errW := stepwise(ctx, rtW, db, tc.in, fetch, 3, tc.filters, 0)
			_, _, errG := rtG.FetchFiltered(ctx, db, tc.in, fetch, tc.filters, last)
			if !errors.Is(errW, ErrRowLimit) || !errors.Is(errG, ErrRowLimit) ||
				bg.Bytes() != bw.Bytes() || bg.PeakRows() != bw.PeakRows() {
				t.Fatalf("%s last=%v killed at %d rows: %v bytes=%d peak=%d, stepwise %v bytes=%d peak=%d",
					tc.name, last, fullCounts[0]/2, errG, bg.Bytes(), bg.PeakRows(), errW, bw.Bytes(), bw.PeakRows())
			}
			// A byte cap anywhere from nothing to past the whole charge: both
			// runs see the same count at every check, so they fail on the
			// same check with the same message — exactly when the cap is
			// below the Fetch's charge — or both pass having charged all of
			// it, with the same peak.
			charge := int64(fullCounts[0]) * 4 * nodeIDBytes
			var caps []int64
			for k := int64(0); k <= 40; k++ {
				c := charge * k / 32
				caps = append(caps, c-1, c, c+1)
			}
			for _, maxBytes := range caps {
				bw, bg := &Budget{MaxBytes: maxBytes}, &Budget{MaxBytes: maxBytes}
				rtW, rtG := new(Runtime), new(Runtime)
				rtW.SetBudget(bw)
				rtG.SetBudget(bg)
				_, _, errW := stepwise(ctx, rtW, db, tc.in, fetch, 3, tc.filters, 0)
				_, _, errG := rtG.FetchFiltered(ctx, db, tc.in, fetch, tc.filters, last)
				killed := maxBytes > 0 && maxBytes < charge // a cap of 0 or less is none
				if fmt.Sprint(errG) != fmt.Sprint(errW) || killed != errors.Is(errG, ErrBudgetExceeded) ||
					!killed && (errG != nil || bg.Bytes() != charge) ||
					bg.Bytes() != bw.Bytes() || bg.PeakRows() != bw.PeakRows() {
					t.Fatalf("%s last=%v under %d bytes: %v bytes=%d peak=%d, stepwise %v bytes=%d peak=%d",
						tc.name, last, maxBytes, errG, bg.Bytes(), bg.PeakRows(), errW, bw.Bytes(), bw.PeakRows())
				}
			}
		}
		again, err := Fetch(ctx, db, tc.in, fetch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Data, unfiltered.Data) {
			t.Fatalf("%s: the shared partner lists changed under the fused operator", tc.name)
		}
	}
}

// TestFetchFilteredBudgetKill: the fused operator dies of the unfused
// Fetch's typed kills, on the rows that Fetch would have produced — not on
// the few that survive.
func TestFetchFilteredBudgetKill(t *testing.T) {
	g := fusedDAG(7, 400, 1200)
	db := mustDB(t, g)
	ctx := context.Background()
	in, fetch := fusedInput(t, g, db)
	filters := []NodeFilter{{Conds: []Cond{cond(g, "D", "C", 2, 3)}}}
	free := &Budget{}
	rt := new(Runtime)
	rt.SetBudget(free)
	res, counts, err := rt.FetchFiltered(ctx, db, in, fetch, filters, true)
	if err != nil || res.N == 0 || res.N >= counts[0] {
		t.Fatalf("FetchFiltered: %d of %v rows, %v", res.N, counts, err)
	}
	if want := int64(counts[0]) * 4 * nodeIDBytes; free.Bytes() != want || free.PeakRows() != int64(counts[0]) {
		t.Fatalf("charged %d bytes, peak %d; want the Fetch's %d logical rows (%d bytes)", free.Bytes(), free.PeakRows(), counts[0], want)
	}
	for _, tc := range []struct {
		rows  int
		bytes int64
		want  error
	}{
		{counts[0] - 1, 0, ErrRowLimit},
		{0, free.Bytes() - 1, ErrBudgetExceeded},
		{counts[0], free.Bytes(), nil},
	} {
		for _, last := range []bool{false, true} {
			rt := new(Runtime)
			rt.SetBudget(&Budget{MaxTableRows: tc.rows, MaxBytes: tc.bytes})
			_, _, err := rt.FetchFiltered(ctx, db, in, fetch, filters, last)
			if !errors.Is(err, tc.want) {
				t.Fatalf("last=%v caps %d rows / %d bytes: %v, want %v", last, tc.rows, tc.bytes, err, tc.want)
			}
		}
	}
}

// TestFetchFilteredErrors: a filter that is not on the node the Fetch binds,
// or that gives it another label than the Fetch does, is refused, not
// misapplied.
func TestFetchFilteredErrors(t *testing.T) {
	g := fusedDAG(7, 120, 300)
	db := mustDB(t, g)
	ctx := context.Background()
	in, fetch := fusedInput(t, g, db)
	for name, f := range map[string]NodeFilter{
		"selection between bound columns": {Conds: []Cond{cond(g, "A", "B", 0, 1)}},
		"selection on an unbound node":    {Conds: []Cond{cond(g, "E", "C", 4, 3)}},
		"selection with two conditions":   {Conds: []Cond{cond(g, "D", "C", 2, 3), cond(g, "A", "C", 0, 3)}},
		"group on another node":           {Conds: []Cond{cond(g, "B", "E", 1, 4)}, Semijoin: true, OutSide: true},
		"group on the wrong side":         {Conds: []Cond{cond(g, "C", "E", 3, 4)}, Semijoin: true},
		"selection of another label":      {Conds: []Cond{cond(g, "D", "E", 2, 3)}},
		"group of another label":          {Conds: []Cond{cond(g, "D", "E", 3, 4)}, Semijoin: true, OutSide: true},
	} {
		if _, _, err := new(Runtime).FetchFiltered(ctx, db, in, fetch, []NodeFilter{f}, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkFetchFilters measures operator groups of served queries on
// XMark 20k, fused against the Fetch and filters they replace, in ns and
// bytes per input row of the group. Q1 and CY2 are the last groups of two
// cyclic queries — Q1 "site->item; site->person; item->category;
// person->category" (Fetch category from item, Selection person->category)
// and CY2 "site->person; site->open_auction; person->watches;
// open_auction->watches" — and P8 is the path battery's "site->people;
// people->person; person->profile; profile->interest" at its Fetch of
// profile from person and the R-semijoin group profile->interest it
// absorbs, the shape every P and T query fuses: its "fused" row folds the
// group into a filtered table, and its "filterto" row filters every list
// by the projection instead (unfolded), as a Fetch did before it folded
// leading groups. Q1served is Q1 as the DPS
// plan serves it, below, and S1served and S4served are the last groups of
// two read_skew queries as the DPS plan serves them on the 20k power-law
// DAG, where a Selection's two operands differ most in length.
func BenchmarkFetchFilters(b *testing.B) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 7}).Graph
	dbx, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	xdb := db
	ctx := context.Background()

	// A cyclic group's input is the three-column table its plan builds
	// first: root->x, then root->y fetched from root. P8's is people->person.
	type group struct {
		name    string
		in      *Result
		fetch   Cond
		filters []NodeFilter
		db      *gdb.Snap // nil: XMark's
	}
	var groups []group
	for _, q := range []struct{ name, root, x, y, z string }{
		{"Q1", "site", "item", "person", "category"},
		{"CY2", "site", "open_auction", "person", "watches"},
	} {
		in, err := HPSJ(ctx, db, cond(g, q.root, q.x, 0, 1))
		if err == nil {
			in, err = Fetch(ctx, db, in, cond(g, q.root, q.y, 0, 2))
		}
		if err != nil {
			b.Fatal(err)
		}
		groups = append(groups, group{q.name, in, cond(g, q.x, q.z, 1, 3),
			[]NodeFilter{{Conds: []Cond{cond(g, q.y, q.z, 2, 3)}}}, nil})
	}
	// Q1served is the served plan's last group of Q1: the rows (item,
	// category, site) — item->category, then site fetched from item — and
	// the Fetch of person from category that absorbs site->person, whose
	// few bound values (sites) recur across many rows.
	in, err := HPSJ(ctx, db, cond(g, "item", "category", 1, 3))
	if err == nil {
		in, err = Fetch(ctx, db, in, cond(g, "site", "item", 0, 1))
	}
	if err != nil {
		b.Fatal(err)
	}
	groups = append(groups, group{"Q1served", in, cond(g, "person", "category", 2, 3),
		[]NodeFilter{{Conds: []Cond{cond(g, "site", "person", 0, 2)}}}, nil})
	in, err = HPSJ(ctx, db, cond(g, "people", "person", 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	groups = append(groups, group{"P8", in, cond(g, "person", "profile", 1, 2),
		[]NodeFilter{{Conds: []Cond{cond(g, "profile", "interest", 2, 3)}, Semijoin: true, OutSide: true}}, nil})

	// The read_skew groups. S1 "L3->L1; L1->L0; L3->L0" fetches L3 from the
	// L0 of its (L1, L0) rows — several hundred candidates a row — and
	// absorbs L3->L1, whose lists hold a handful: the candidates' own
	// bitmap is the longer operand. S4 "L4->L2; L4->L3; L2->L1; L3->L1"
	// fetches L2 from the L4 of its (L3, L1, L4) rows — a few candidates —
	// and absorbs L2->L1, whose lists are hub lists of hundreds: the
	// Selection's bitmap is.
	sg := workload.PowerLawDAG(1, 20000)
	sdbx, err := gdb.Build(sg, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer sdbx.Close()
	sdb, srelease := sdbx.Pin()
	defer srelease()
	in, err = HPSJ(ctx, sdb, cond(sg, "L1", "L0", 1, 0))
	if err == nil {
		in, err = FilterGroup(ctx, sdb, in, []Cond{cond(sg, "L3", "L1", 2, 1)}, 1, false)
	}
	if err == nil {
		in, err = FilterGroup(ctx, sdb, in, []Cond{cond(sg, "L3", "L0", 2, 0)}, 0, false)
	}
	if err != nil {
		b.Fatal(err)
	}
	groups = append(groups, group{"S1served", in, cond(sg, "L3", "L0", 2, 0),
		[]NodeFilter{{Conds: []Cond{cond(sg, "L3", "L1", 2, 1)}}}, sdb})
	in, err = HPSJ(ctx, sdb, cond(sg, "L3", "L1", 0, 1))
	if err == nil {
		in, err = FilterGroup(ctx, sdb, in, []Cond{cond(sg, "L4", "L3", 2, 0)}, 0, false)
	}
	if err == nil {
		in, err = FilterGroup(ctx, sdb, in, []Cond{cond(sg, "L2", "L1", 3, 1)}, 1, false)
	}
	if err == nil {
		in, err = Fetch(ctx, sdb, in, cond(sg, "L4", "L3", 2, 0))
	}
	if err == nil {
		in, err = FilterGroup(ctx, sdb, in, []Cond{cond(sg, "L4", "L2", 2, 3)}, 2, true)
	}
	if err != nil {
		b.Fatal(err)
	}
	groups = append(groups, group{"S4served", in, cond(sg, "L4", "L2", 2, 3),
		[]NodeFilter{{Conds: []Cond{cond(sg, "L2", "L1", 3, 1)}}}, sdb})

	for _, q := range groups {
		in, fetch, filters, db := q.in, q.fetch, q.filters, q.db
		if db == nil {
			db = xdb
		}
		newNode := fetch.ToNode
		if in.ColIndex(newNode) >= 0 {
			newNode = fetch.FromNode
		}
		variants := []struct {
			name string
			run  func() (int, error)
		}{
			{"fused", func() (int, error) {
				res, _, err := new(Runtime).FetchFiltered(ctx, db, in, fetch, filters, true)
				if err != nil {
					return 0, err
				}
				return res.N, nil
			}},
			{"stepwise", func() (int, error) {
				out, _, err := stepwise(ctx, new(Runtime), db, in, fetch, newNode, filters, 0)
				if err != nil {
					return 0, err
				}
				return out.Len(), nil
			}},
		}
		if !stores(filters) {
			variants = append(variants, struct {
				name string
				run  func() (int, error)
			}{"filterto", func() (int, error) { return unfolded(ctx, db, in, fetch, filters) }})
		}
		want, err := variants[1].run()
		if err != nil || want == 0 {
			b.Fatalf("%s: %d rows, %v", q.name, want, err)
		}
		for _, v := range variants {
			b.Run(q.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if n, err := v.run(); err != nil || n != want {
						b.Fatalf("%d rows, want %d (%v)", n, want, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.Len()), "ns/input-row")
			})
		}
	}
}

// TestFilterExtentMatchesFilterGroup: an R-semijoin group over a whole
// extent reduced word by word (FilterExtent) is FilterGroup over the
// extent's one-column table: the same rows in extent order, and under a
// limit and a row cap at the survivors' count and one either side, the
// same truncation, peak and typed kill. A group with an empty W row
// empties the extent without running.
func TestFilterExtentMatchesFilterGroup(t *testing.T) {
	// Over a thousand C nodes: the scan crosses a cancellation stride.
	g := fusedDAG(7, 6000, 5000)
	db := mustDB(t, g)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		conds   []Cond
		outSide bool
	}{
		{"out", []Cond{cond(g, "C", "E", 0, 1)}, true},
		{"in, two conditions", []Cond{cond(g, "E", "C", 1, 0), cond(g, "D", "C", 2, 0)}, false},
		{"empty W", []Cond{cond(g, "C", "E", 0, 1), cond(g, "C", "Z", 0, 2)}, true},
	} {
		n := g.ExtentSize(g.Labels().Lookup("C"))
		full, err := FilterGroup(ctx, db, extentOf(g, g.Labels().Lookup("C"), 0, 1), tc.conds, 0, tc.outSide)
		if err != nil {
			t.Fatal(err)
		}
		s := full.Len()
		if n < cancelStride || tc.name != "empty W" && (s == 0 || s == n) {
			t.Fatalf("%s: the group keeps %d of %d nodes; the case proves nothing", tc.name, s, n)
		}
		for _, c := range []struct{ ResultRows, MaxTableRows int }{{}, {ResultRows: 1}, {ResultRows: s - 1}, {ResultRows: s}, {ResultRows: s + 1},
			{MaxTableRows: s - 1}, {MaxTableRows: s}, {MaxTableRows: s + 1}} {
			bw, bg := &Budget{ResultRows: c.ResultRows, MaxTableRows: c.MaxTableRows}, &Budget{ResultRows: c.ResultRows, MaxTableRows: c.MaxTableRows}
			rtW, rtG := new(Runtime), new(Runtime)
			rtW.SetBudget(bw)
			rtG.SetBudget(bg)
			rtW.PushLimit(c.ResultRows)
			rtG.PushLimit(c.ResultRows)
			want, errW := rtW.FilterGroup(ctx, db, extentOf(g, g.Labels().Lookup("C"), 0, 1), tc.conds, 0, tc.outSide)
			got, errG := rtG.FilterExtent(ctx, db, tc.conds, 0, tc.outSide)
			what := fmt.Sprintf("%s limit %d row cap %d", tc.name, c.ResultRows, c.MaxTableRows)
			if fmt.Sprint(errG) != fmt.Sprint(errW) || bg.Truncated() != bw.Truncated() || bg.PeakRows() != bw.PeakRows() ||
				rtG.Stats().Ops != rtW.Stats().Ops {
				t.Fatalf("%s: %v truncated=%v peak=%d ops=%d, FilterGroup %v truncated=%v peak=%d ops=%d", what,
					errG, bg.Truncated(), bg.PeakRows(), rtG.Stats().Ops, errW, bw.Truncated(), bw.PeakRows(), rtW.Stats().Ops)
			}
			if errW == nil && (got.Len() != want.Len() || !slices.Equal(got.Data, want.Data) || !slices.Equal(got.Cols, want.Cols)) {
				t.Fatalf("%s: %d rows, FilterGroup %d", what, got.Len(), want.Len())
			}
		}
	}
}

// unfolded is the fused Fetch of in under fetch with the semijoin groups
// filters as it ran before leading groups folded into filtered tables:
// the column stored, and every unit's list filtered by the projections
// (fetchFilters.apply, RankSet.FilterTo). It returns the survivors' count.
func unfolded(ctx context.Context, db *gdb.Snap, in *Result, fetch Cond, filters []NodeFilter) (int, error) {
	boundNode, forward, err := boundSide(in, fetch)
	if err != nil {
		return 0, err
	}
	newNode, target := fetch.ToNode, fetch.ToLabel
	if !forward {
		newNode, target = fetch.FromNode, fetch.FromLabel
	}
	fs, err := resolveFilters(db, in, newNode, target, filters)
	if err != nil {
		return 0, err
	}
	rt, col := new(Runtime), in.ColIndex(boundNode)
	rd := rt.open(db)
	partners, err := rd.partners(fetch, forward)
	if err != nil {
		return 0, err
	}
	pf, err := rt.openFilters(rd, db, fs, fetch, forward, col)
	if err != nil {
		return 0, err
	}
	res := &Result{Cols: append(slices.Clone(in.Cols), newNode), Data: in.Data, exp: []expanded{{bound: col, parent: -1, stored: true}}}
	_, n, err := rt.expand(ctx, partners, nil, res, 0, pf, make([]int, 1+len(fs)))
	return n, err
}

// BenchmarkFilterExtent measures a plan's leading R-semijoin group over a
// whole extent, in ns per extent node: reduced word by word (FilterExtent,
// the "words" row) against the extent copied and tested node by node
// (FilterGroup, the "nodes" row, which the reference plan runs). XMark 20k's
// person extent keeps the persons with a profile and an address; the 20k
// power-law DAG's L1 extent keeps the L1 nodes an L3 node reaches.
func BenchmarkFilterExtent(b *testing.B) {
	xg := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 7}).Graph
	sg := workload.PowerLawDAG(1, 20000)
	ctx := context.Background()
	for _, q := range []struct {
		name    string
		g       *graph.Graph
		label   string
		conds   func(g *graph.Graph) []Cond
		outSide bool
	}{
		{"XMark", xg, "person", func(g *graph.Graph) []Cond {
			return []Cond{cond(g, "person", "profile", 0, 1), cond(g, "person", "address", 0, 2)}
		}, true},
		{"Skew", sg, "L1", func(g *graph.Graph) []Cond { return []Cond{cond(g, "L3", "L1", 1, 0)} }, false},
	} {
		dbx, err := gdb.Build(q.g, gdb.Options{PoolBytes: 16 << 20})
		if err != nil {
			b.Fatal(err)
		}
		db, release := dbx.Pin()
		conds, l := q.conds(q.g), q.g.Labels().Lookup(q.label)
		want, err := FilterGroup(ctx, db, extentOf(q.g, l, 0, 1), conds, 0, q.outSide)
		if err != nil || want.Len() == 0 {
			b.Fatalf("%s: %d rows, %v", q.name, want.Len(), err)
		}
		for _, v := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"words", func() (*Result, error) { return new(Runtime).FilterExtent(ctx, db, conds, 0, q.outSide) }},
			{"nodes", func() (*Result, error) {
				return new(Runtime).FilterGroup(ctx, db, &Result{Cols: []int{0}, Data: slices.Clone(q.g.Extent(l)), N: q.g.ExtentSize(l)}, conds, 0, q.outSide)
			}},
		} {
			b.Run(q.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, err := v.run(); err != nil || res.Len() != want.Len() {
						b.Fatalf("%d rows, want %d (%v)", res.Len(), want.Len(), err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*q.g.ExtentSize(l)), "ns/node")
			})
		}
		release()
		dbx.Close()
	}
}
