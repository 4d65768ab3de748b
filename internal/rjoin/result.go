package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
)

// Result is what a plan run returns: the final rows, with the plan's last
// expansion kept as the product the operator computed it as. Fetch's output
// is row × partners(row[col]) per input row (Algorithm 2), and the partner
// list is a shared immutable slice of the epoch's partner table; a Result
// holds the input rows and one list per row instead of the rows of their
// product, so the consumer — the server's encoder, or Table for callers
// that want rows — writes each output cell once, in the order it wants
// them, and nothing is copied in between.
//
// The lists are ordinary heap slices that nothing mutates after they are
// published to a slot, so a Result stays valid after the epoch it was read
// on is released and retired: it holds no page, pin or slot, only memory
// the garbage collector keeps for it.
type Result struct {
	// Cols holds pattern node indexes, one per column, in the order the
	// plan bound them (the source-column order). When Exp is set the last
	// of them is the expanded column.
	Cols []int
	// Rows holds the prefix rows: whole rows when Exp is nil, otherwise rows
	// over Cols minus its last column.
	Rows [][]graph.NodeID
	// Exp, when non-nil, holds per prefix row the values of the last column
	// it expands to, ascending; row i stands for len(Exp[i]) result rows, in
	// list order. The lists are shared with the read path and must not be
	// mutated (the slice of lists itself belongs to the Result).
	Exp [][]graph.NodeID
	// N is the number of result rows: len(Rows), or the summed list lengths.
	N int
}

// Result views the table as a plain (fully materialised) Result, sharing
// its rows.
func (t *Table) Result() *Result {
	return &Result{Cols: t.Cols, Rows: t.Rows, N: len(t.Rows)}
}

// Order returns, for each of nodes, the column of r that binds it: the
// permutation Table and the server's encoder apply while writing. nodes
// must name each of r's columns exactly once — a plan's final table binds
// every pattern node once, and only at full width are the permuted rows
// known to be pairwise distinct (every operator preserves distinct rows).
func (r *Result) Order(nodes []int) ([]int, error) {
	if len(nodes) != len(r.Cols) {
		return nil, fmt.Errorf("rjoin: result order: %d nodes for columns %v", len(nodes), r.Cols)
	}
	src := make([]int, len(nodes))
	used := make([]bool, len(nodes))
	for j, n := range nodes {
		s := slices.Index(r.Cols, n)
		if s < 0 || used[s] {
			return nil, fmt.Errorf("rjoin: result order: node %d of %v not bound once in %v", n, nodes, r.Cols)
		}
		src[j], used[s] = s, true
	}
	return src, nil
}

// Table materialises the result with the given pattern-node columns in the
// given order, preserving row order: one write per cell, straight into the
// requested order. A plain result already in that order is returned as it
// is, sharing its rows.
func (r *Result) Table(nodes []int) (*Table, error) {
	src, err := r.Order(nodes)
	if err != nil {
		return nil, err
	}
	identity := true
	for j, s := range src {
		identity = identity && s == j
	}
	if identity {
		if r.Exp == nil {
			return &Table{Cols: r.Cols, Rows: r.Rows}, nil
		}
		src = nil
	}
	out := NewTable(nodes...)
	out.Rows = r.rows(src)
	return out, nil
}

// rows writes the result's rows out, output column j taken from source
// column src[j] (a nil src is the identity): one exact row-header slice
// and one exact arena.
func (r *Result) rows(src []int) [][]graph.NodeID {
	if r.N == 0 {
		return nil
	}
	out := make([][]graph.NodeID, 0, r.N)
	arena := make([]graph.NodeID, r.N*len(r.Cols))
	for i := range r.Rows {
		out, arena = r.appendRows(out, arena, i, src)
	}
	return out
}

// appendRows appends the result rows prefix row i stands for to out, carved
// from arena (which must have room), with output column j taken from source
// column src[j]; a nil src is the identity. It returns the grown out and
// the rest of the arena.
func (r *Result) appendRows(out [][]graph.NodeID, arena []graph.NodeID, i int, src []int) ([][]graph.NodeID, []graph.NodeID) {
	prefix, w := r.Rows[i], len(r.Cols)
	if r.Exp == nil {
		row := arena[:w:w]
		if src == nil {
			copy(row, prefix)
		}
		for j, s := range src {
			row[j] = prefix[s]
		}
		return append(out, row), arena[w:]
	}
	last := w - 1
	for _, n := range r.Exp[i] {
		row := arena[:w:w]
		arena = arena[w:]
		if src == nil {
			copy(row, prefix)
			row[last] = n
		} else {
			for j, s := range src {
				if s == last {
					row[j] = n
				} else {
					row[j] = prefix[s]
				}
			}
		}
		out = append(out, row)
	}
	return out, arena
}

// truncate cuts the result to its first limit rows (limit <= 0 is no
// limit) and reports whether rows were dropped. In a factorised result the
// cut lands inside one list: that entry of Exp is re-sliced, the shared
// list is untouched.
func (r *Result) truncate(limit int) bool {
	if limit <= 0 || r.N <= limit {
		return false
	}
	if r.Exp == nil {
		r.Rows = r.Rows[:limit]
	} else {
		n := 0
		for i, list := range r.Exp {
			if n+len(list) >= limit {
				r.Exp[i] = list[:limit-n]
				r.Rows, r.Exp = r.Rows[:i+1], r.Exp[:i+1]
				break
			}
			n += len(list)
		}
	}
	r.N = limit
	return true
}
