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

// TestFlatLayout: at prefix widths 1–5, with zero and with several rows, a
// plain and a factorised Result hold row i at Data[i*w:(i+1)*w]; Table
// writes the same rows a slice-per-row model holds, in the result's own and
// in reversed column order; a limit cuts both layouts to the model's
// prefix, including one that lands inside a list; Table.Result copies
// back; and a plain result survives the spill encoding.
func TestFlatLayout(t *testing.T) {
	lists := [][]graph.NodeID{{100, 101, 102}, nil, {103}, {104, 105}}
	for w := 1; w <= 5; w++ {
		for _, rows := range []int{0, 4} {
			for _, factorised := range []bool{false, true} {
				name := fmt.Sprintf("width=%d rows=%d factorised=%v", w, rows, factorised)
				cols := make([]int, w)
				for j := range cols {
					cols[j] = 10 + j
				}
				r := &Result{Cols: cols}
				var model [][]graph.NodeID
				for i := 0; i < rows; i++ {
					prefix := make([]graph.NodeID, w)
					for j := range prefix {
						prefix[j] = graph.NodeID(10*i + j)
					}
					r.Data = append(r.Data, prefix...)
					if !factorised {
						model = append(model, prefix)
						continue
					}
					r.Exp = append(r.Exp, lists[i])
					for _, v := range lists[i] {
						model = append(model, append(slices.Clone(prefix), v))
					}
				}
				if factorised {
					r.Cols = append(r.Cols, 99)
				}
				r.N = len(model)
				for i := 0; i < rows; i++ {
					if got := r.Row(i); !slices.Equal(got, r.Data[i*w:(i+1)*w]) || cap(got) != w {
						t.Fatalf("%s: Row(%d) = %v", name, i, got)
					}
				}
				checkTable(t, name, r, model)
				if !factorised {
					enc := r.EncodeRows()
					dec := &Result{Cols: r.Cols}
					if err := dec.DecodeRows(enc); err != nil || dec.N != r.N || !slices.Equal(dec.Data, r.Data) {
						t.Fatalf("%s: spill round trip: %+v, %v", name, dec, err)
					}
				}
				for _, limit := range []int{1, 2, 4, 5} {
					if limit >= len(model) {
						continue
					}
					cut := *r
					cut.Exp = slices.Clone(r.Exp)
					if !cut.truncate(limit) {
						t.Fatalf("%s: truncate(%d) dropped nothing", name, limit)
					}
					checkTable(t, fmt.Sprintf("%s limit=%d", name, limit), &cut, model[:limit])
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
	if back.N != r.N || back.Exp != nil || len(back.Data) != r.N*len(r.Cols) {
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
