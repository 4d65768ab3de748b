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
// membership in an ascending list — the other endpoint's partner list for
// a Selection, the condition's distinct projection for an R-semijoin — and
// the Fetch intersects its partner lists with them before any row exists.
// The counted-I/O reference mode never does this; it runs the paper's
// pipeline step by step.
//
// Every operator is one loop on the calling goroutine (see Runtime).
// Temporal tables are in-memory. Operators read the cluster index and the
// graph codes through the snapshot's decoded per-epoch memos (reads.go);
// in the counted-I/O reference mode every access instead goes through the
// graph database's buffer pool and is counted as I/O, as in the paper.
package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
)

// Table is a temporal (intermediate) table: a set of distinct rows over a
// set of pattern-node columns.
type Table struct {
	// Cols holds pattern node indexes, one per column.
	Cols []int
	// Rows holds tuples of data nodes, aligned with Cols.
	Rows [][]graph.NodeID

	// arena is the append-only backing store NewRow carves rows from, so
	// bulk row production (Fetch, HPSJ) allocates one chunk per
	// arenaChunkRows rows instead of one slice per row.
	arena []graph.NodeID

	// budget, when non-nil, is charged for every row carved from the
	// arena; the query's operators check it at their cancellation polls
	// and when they finish. Runtime.newTable attaches it.
	budget *Budget
}

// arenaChunkRows is how many rows one arena chunk holds.
const arenaChunkRows = 1024

// nodeIDBytes is the in-memory size of one graph.NodeID (int32), used for
// intermediate-byte accounting.
const nodeIDBytes = 4

// NewRow returns a fresh zeroed row of len(Cols) carved from the table's
// append-only arena. The row is NOT added to Rows — fill it and append it.
// Rows are full-capacity slices, so appending to one never bleeds into its
// arena neighbours. Not safe for concurrent use.
func (t *Table) NewRow() []graph.NodeID {
	w := len(t.Cols)
	if w == 0 {
		return nil
	}
	if t.budget != nil {
		t.budget.AddBytes(int64(w) * nodeIDBytes)
	}
	if cap(t.arena)-len(t.arena) < w {
		t.arena = make([]graph.NodeID, 0, arenaChunkRows*w)
	}
	n := len(t.arena)
	t.arena = t.arena[: n+w : cap(t.arena)]
	return t.arena[n : n+w : n+w]
}

// NewTable creates an empty table with the given columns.
func NewTable(cols ...int) *Table {
	return &Table{Cols: append([]int(nil), cols...)}
}

// ColIndex returns the position of pattern node in Cols, or -1.
func (t *Table) ColIndex(node int) int {
	for i, c := range t.Cols {
		if c == node {
			return i
		}
	}
	return -1
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// HasCol reports whether the pattern node is bound in this table.
func (t *Table) HasCol(node int) bool { return t.ColIndex(node) >= 0 }

func (t *Table) String() string {
	return fmt.Sprintf("table{cols=%v rows=%d}", t.Cols, len(t.Rows))
}

// Project returns a new table with only the given pattern-node columns, in
// the given order, with duplicate rows removed.
func (t *Table) Project(nodes []int) (*Table, error) {
	idx := make([]int, len(nodes))
	for i, n := range nodes {
		idx[i] = t.ColIndex(n)
		if idx[i] < 0 {
			return nil, fmt.Errorf("rjoin: project: node %d not bound in %v", n, t.Cols)
		}
	}
	out := NewTable(nodes...)
	seen := make(map[string]struct{}, len(t.Rows))
	var key []byte
	for _, r := range t.Rows {
		row := make([]graph.NodeID, len(idx))
		key = key[:0]
		for i, j := range idx {
			row[i] = r[j]
			key = appendNodeKey(key, r[j])
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// SortRows orders rows lexicographically (for deterministic output and
// test comparison).
func (t *Table) SortRows() {
	slices.SortFunc(t.Rows, func(a, b []graph.NodeID) int {
		for k := range a {
			if a[k] != b[k] {
				if a[k] < b[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
}

func appendNodeKey(b []byte, v graph.NodeID) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// EncodeRows serialises the table's rows (not its schema) for spilling a
// temporal table to storage, as the paper's disk-based executor does
// between operators. Layout: row count, column count, then row-major
// little-endian uint32 node IDs.
func (t *Table) EncodeRows() []byte {
	w := len(t.Cols)
	b := make([]byte, 8+4*w*len(t.Rows))
	putU32(b, uint32(len(t.Rows)))
	putU32(b[4:], uint32(w))
	o := 8
	for _, row := range t.Rows {
		for _, v := range row {
			putU32(b[o:], uint32(v))
			o += 4
		}
	}
	return b
}

// DecodeRows replaces the table's rows with the contents of an EncodeRows
// buffer. The column count must match the table schema.
func (t *Table) DecodeRows(b []byte) error {
	n := int(u32(b))
	w := int(u32(b[4:]))
	if w != len(t.Cols) {
		return fmt.Errorf("rjoin: decode width %d != %d columns", w, len(t.Cols))
	}
	if len(b) < 8+4*w*n {
		return fmt.Errorf("rjoin: decode buffer truncated")
	}
	t.Rows = make([][]graph.NodeID, n)
	o := 8
	flat := make([]graph.NodeID, n*w)
	for i := range t.Rows {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		for j := 0; j < w; j++ {
			row[j] = graph.NodeID(u32(b[o:]))
			o += 4
		}
		t.Rows[i] = row
	}
	return nil
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
