package rjoin

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fastmatch/internal/graph"
)

func TestEncodeDecodeRowsRoundTrip(t *testing.T) {
	res := (&Table{Cols: []int{2, 0, 5}, Rows: [][]graph.NodeID{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}).Result()
	enc := res.EncodeRows()
	out := &Result{Cols: []int{2, 0, 5}}
	if err := out.DecodeRows(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, res) {
		t.Fatalf("round trip changed rows: %+v", out)
	}
	// Empty table round-trips too.
	empty := &Result{Cols: []int{1}}
	if err := empty.DecodeRows(empty.EncodeRows()); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatal("empty table grew")
	}
}

// TestDecodeRowsErrors: a spill buffer of the wrong width, one shorter than
// its 8-byte header (every length 0–7) and one shorter than the rows it
// declares each return an error, never an index panic.
func TestDecodeRowsErrors(t *testing.T) {
	enc := (&Result{Cols: []int{0, 1}, Data: []graph.NodeID{1, 2}, N: 1}).EncodeRows()

	wrongWidth := &Result{Cols: []int{0}}
	if err := wrongWidth.DecodeRows(enc); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("width mismatch: %v", err)
	}
	for n := 0; n < len(enc); n++ {
		if err := (&Result{Cols: []int{0, 1}}).DecodeRows(enc[:n]); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%d of %d bytes: %v, want a truncation error", n, len(enc), err)
		}
	}
	// A row count whose n·w cells cannot fit the buffer, however large.
	huge := slices.Clone(enc)
	putU32(huge, 1<<31)
	if err := (&Result{Cols: []int{0, 1}}).DecodeRows(huge); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("2^31 declared rows: %v, want a truncation error", err)
	}
}

// TestFlatLayout: at prefix widths 1–5, with zero and with several rows,
// a plain Result and one factorised over K = 1, 2 and 3 expanded columns
// hold prefix row i at Data[i*w:(i+1)*w]; Table writes the same rows a
// slice-per-row model holds (the products with the column bound first
// outermost), in the result's own and in reversed column order; a limit
// cuts every layout to the model's prefix, including one that lands inside
// an inner list, on an outer list's boundary and inside a product;
// Table.Result copies back; and a plain result survives the spill
// encoding.
func TestFlatLayout(t *testing.T) {
	lists := [][]graph.NodeID{{100, 101, 102}, nil, {103}, {104, 105}}
	for w := 1; w <= 5; w++ {
		for _, rows := range []int{0, 4} {
			for k := 0; k <= 3; k++ {
				name := fmt.Sprintf("width=%d rows=%d K=%d", w, rows, k)
				cols := make([]int, w)
				for j := range cols {
					cols[j] = 10 + j
				}
				r := &Result{Cols: cols}
				var model, exp [][]graph.NodeID
				for i := 0; i < rows; i++ {
					prefix := make([]graph.NodeID, w)
					for j := range prefix {
						prefix[j] = graph.NodeID(10*i + j)
					}
					r.Data = append(r.Data, prefix...)
					if k == 0 {
						model = append(model, prefix)
						continue
					}
					// Prefix row i's k-th list is lists[(i+k)%4], shifted so
					// the columns differ.
					prod := [][]graph.NodeID{prefix}
					for j := 0; j < k; j++ {
						list := slices.Clone(lists[(i+j)%len(lists)])
						for x := range list {
							list[x] += graph.NodeID(1000 * j)
						}
						exp = append(exp, list)
						var next [][]graph.NodeID
						for _, row := range prod {
							for _, v := range list {
								next = append(next, append(slices.Clone(row), v))
							}
						}
						prod = next
					}
					model = append(model, prod...)
				}
				for j := 0; j < k; j++ {
					r.Cols = append(r.Cols, 99-j)
				}
				r.N = len(model)
				if k > 0 {
					r = factorised(r.Cols, r.Data, k, exp, r.N)
				}
				for i := 0; i < rows; i++ {
					if got := r.Row(i); !slices.Equal(got, r.Data[i*w:(i+1)*w]) || cap(got) != w {
						t.Fatalf("%s: Row(%d) = %v", name, i, got)
					}
				}
				checkTable(t, name, r, model)
				if k == 0 {
					enc := r.EncodeRows()
					dec := &Result{Cols: r.Cols}
					if err := dec.DecodeRows(enc); err != nil || dec.N != r.N || !slices.Equal(dec.Data, r.Data) {
						t.Fatalf("%s: spill round trip: %+v, %v", name, dec, err)
					}
				}
				for limit := 1; limit < len(model); limit++ {
					cut := *r
					if !cut.truncate(limit) {
						t.Fatalf("%s: truncate(%d) dropped nothing", name, limit)
					}
					checkTable(t, fmt.Sprintf("%s limit=%d", name, limit), &cut, model[:limit])
					if got := walkLists(&cut); k > 0 && !slices.EqualFunc(got, walkLists(r)[:len(got)], slices.Equal[[]graph.NodeID]) {
						t.Fatalf("%s limit=%d: truncate changed a list", name, limit)
					}
				}
			}
		}
	}
}

// checkTable compares r's rows with model in r's column order and
// reversed, and through Table.Result.
func checkTable(t *testing.T, name string, r *Result, model [][]graph.NodeID) {
	t.Helper()
	got, err := r.Table(r.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(model) || !slices.EqualFunc(got.Rows, model, slices.Equal[[]graph.NodeID]) {
		t.Fatalf("%s: rows %v, want %v", name, got.Rows, model)
	}
	back := got.Result()
	if back.N != r.N || back.K() != 0 || len(back.Data) != r.N*len(r.Cols) {
		t.Fatalf("%s: Table.Result = %+v", name, back)
	}
	rev := slices.Clone(r.Cols)
	slices.Reverse(rev)
	flipped, err := r.Table(rev)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range flipped.Rows {
		want := slices.Clone(model[i])
		slices.Reverse(want)
		if !slices.Equal(row, want) {
			t.Fatalf("%s: reversed row %d = %v, want %v reversed", name, i, row, model[i])
		}
	}
}

func TestSortRowsDeterministic(t *testing.T) {
	tbl := NewTable(0, 1)
	tbl.Rows = [][]graph.NodeID{{3, 1}, {1, 2}, {1, 1}, {3, 0}}
	tbl.SortRows()
	want := [][]graph.NodeID{{1, 1}, {1, 2}, {3, 0}, {3, 1}}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("sorted = %v", tbl.Rows)
	}
}

func TestCondString(t *testing.T) {
	c := Cond{FromNode: 2, ToNode: 5}
	if c.String() != "2->5" {
		t.Fatalf("Cond.String = %q", c.String())
	}
}
