// Package rjoin implements the paper's R-join and R-semijoin operators over
// a graph database (Section 3):
//
//   - HPSJ (Algorithm 1): an R-join between two base tables, answered
//     entirely from the cluster-based R-join index via the W-table.
//   - HPSJ+ (Algorithm 2): a two-step filter/fetch R-join between a temporal
//     table and a base table. Filter is the R-semijoin
//     getCenters(x, X, Y) = out(x) ∩ W(X, Y) (Eq. 6); Fetch expands the
//     surviving rows from the center clusters.
//   - FilterGroup: one shared scan evaluating several R-semijoins that read
//     the same code side of one temporal column (Remark 3.1).
//   - Selection: a self R-join (Eq. 5) — a reachability condition between
//     two columns both already bound in the temporal table, checked from
//     graph codes.
//
// Selection and the R-semijoin run as operators of their own, over the rows
// of a temporal table, when the column they test was bound by an earlier
// step. When it is the column the Fetch just before them binds, the
// executor hands them to that Fetch instead (FetchFiltered): each is then
// a membership test of the new value — in the other endpoint's partner list
// for a Selection, in the condition's distinct projection (a gdb.NodeSet,
// one bit per node) for an R-semijoin — and the Fetch cuts its partner
// lists down with them before any row exists. The counted-I/O reference
// mode never does this; it runs the paper's pipeline step by step.
//
// Temporal tables are in-memory and flat: a Result holds its rows as one
// row-major []graph.NodeID whose stride is the row width, so a table of N
// rows is one pointer-free slice, not N row headers. The Fetches of a
// plan's factorised tail — the run that ends the plan and reads only nodes
// bound before it — write no rows: each adds one expanded column, a
// partner list per prefix row (FetchResult), and the Result stands for
// the first N rows of the prefix rows' products. Operators consume their
// input: FilterGroup and Selection compact the survivors over the input's
// own data (row k is written at an index no greater than the one it was
// read from), and a tail Fetch shares its input's data as the prefix rows
// of its factorised Result. A caller that still needs an input after an
// operator ran must pass a copy. Table is the materialised answer, one
// slice per row, for callers that want rows (Result.Table).
//
// Every operator is one loop on the calling goroutine (see Runtime).
// Operators read the cluster index and the graph codes through the
// snapshot's decoded index (reads.go); in the counted-I/O
// reference mode every access instead goes through the graph database's
// buffer pool and is counted as I/O, as in the paper.
package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
)

// Table is a materialised answer: a set of distinct rows over a set of
// pattern-node columns, one slice per row. Operators never build one; they
// pass Results, whose rows are flat, and Result.Table writes a Table out
// for in-process callers that want rows.
type Table struct {
	// Cols holds pattern node indexes, one per column.
	Cols []int
	// Rows holds tuples of data nodes, aligned with Cols.
	Rows [][]graph.NodeID
}

// nodeIDBytes is the in-memory size of one graph.NodeID (int32), used for
// intermediate-byte accounting.
const nodeIDBytes = 4

// NewTable creates an empty table with the given columns.
func NewTable(cols ...int) *Table {
	return &Table{Cols: append([]int(nil), cols...)}
}

// ColIndex returns the position of pattern node in Cols, or -1.
func (t *Table) ColIndex(node int) int { return slices.Index(t.Cols, node) }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// HasCol reports whether the pattern node is bound in this table.
func (t *Table) HasCol(node int) bool { return t.ColIndex(node) >= 0 }

func (t *Table) String() string {
	return fmt.Sprintf("table{cols=%v rows=%d}", t.Cols, len(t.Rows))
}

// Result copies the table into a plain (flat) Result, for callers that
// feed a table to the operators.
func (t *Table) Result() *Result {
	w := len(t.Cols)
	data := make([]graph.NodeID, 0, w*len(t.Rows))
	for _, row := range t.Rows {
		data = append(data, row[:w]...)
	}
	return &Result{Cols: t.Cols, Data: data, N: len(t.Rows)}
}

// SortRows orders rows lexicographically (for deterministic output and
// test comparison).
func (t *Table) SortRows() {
	slices.SortFunc(t.Rows, slices.Compare[[]graph.NodeID])
}

func appendNodeKey(b []byte, v graph.NodeID) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Cond is a reachability condition From→To between two pattern nodes with
// their data-graph labels resolved.
type Cond struct {
	FromNode, ToNode   int
	FromLabel, ToLabel graph.Label
}

func (c Cond) String() string {
	return fmt.Sprintf("%d->%d", c.FromNode, c.ToNode)
}
