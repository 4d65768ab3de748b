package rjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
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

// TestFetchFilteredMatchesStepwise: a Fetch that absorbs the filters on the
// node it binds is the Fetch followed by those filters — same rows, same
// order, same per-step counts, same budget — written out or left
// factorised, unlimited or limited, and it never writes to a shared partner
// list.
func TestFetchFilteredMatchesStepwise(t *testing.T) {
	g := fusedDAG(7, 400, 1200)
	db := mustDB(t, g)
	ctx := context.Background()

	in, fetch := fusedInput(t, g, db)
	selDC := NodeFilter{Conds: []Cond{cond(g, "D", "C", 2, 3)}}
	selCD := NodeFilter{Conds: []Cond{cond(g, "C", "D", 3, 2)}}
	selCA := NodeFilter{Conds: []Cond{cond(g, "C", "A", 3, 0)}} // a ⇝ b ⇝ c: never holds on a DAG
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
				if factorised := res.Exp != nil; factorised != (last && counts[0] > 0) {
					t.Fatalf("%s: factorised=%v", what, factorised)
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

// TestFetchFilteredErrors: a filter that is not on the node the Fetch binds
// is refused, not misapplied.
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
// absorbs, the shape every P and T query fuses.
func BenchmarkFetchFilters(b *testing.B) {
	g := xmark.Generate(xmark.Config{Nodes: 20000, Seed: 7}).Graph
	dbx, err := gdb.Build(g, gdb.Options{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer dbx.Close()
	db, release := dbx.Pin()
	defer release()
	ctx := context.Background()

	// A cyclic group's input is the three-column table its plan builds
	// first: root->x, then root->y fetched from root. P8's is people->person.
	type group struct {
		name    string
		in      *Result
		fetch   Cond
		filters []NodeFilter
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
			[]NodeFilter{{Conds: []Cond{cond(g, q.y, q.z, 2, 3)}}}})
	}
	in, err := HPSJ(ctx, db, cond(g, "people", "person", 0, 1))
	if err != nil {
		b.Fatal(err)
	}
	groups = append(groups, group{"P8", in, cond(g, "person", "profile", 1, 2),
		[]NodeFilter{{Conds: []Cond{cond(g, "profile", "interest", 2, 3)}, Semijoin: true, OutSide: true}}})

	for _, q := range groups {
		in, fetch, filters, newNode := q.in, q.fetch, q.filters, q.fetch.ToNode
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
