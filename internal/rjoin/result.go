package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
)

// Result is the temporal relation operators take and return, and what a
// plan run returns: rows of fixed width stored flat, row-major, in one
// []graph.NodeID. A plan's last expansion is kept as the product the
// operator computed it as: Fetch's output is row × partners(row[col]) per
// input row (Algorithm 2), and the partner list is a shared immutable slice
// of the epoch's partner table, so a factorised Result holds the input rows
// and one list per row instead of the rows of their product; the consumer —
// the server's encoder, or Table for callers that want rows — writes each
// output cell once, in the order it wants them, and nothing is copied in
// between.
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
	// Data holds the prefix rows row-major with stride Width(): row i is
	// Data[i*w : (i+1)*w]. They are whole rows when Exp is nil, otherwise
	// rows over Cols minus its last column, one per entry of Exp.
	Data []graph.NodeID
	// Exp, when non-nil, holds per prefix row the values of the last column
	// it expands to, ascending; row i stands for len(Exp[i]) result rows, in
	// list order. The lists are shared with the read path and must not be
	// mutated (the slice of lists itself belongs to the Result).
	Exp [][]graph.NodeID
	// N is the number of result rows: the number of prefix rows when Exp
	// is nil, otherwise the summed list lengths.
	N int
}

// Width is the stride of Data: the number of columns of a prefix row.
func (r *Result) Width() int {
	if r.Exp != nil {
		return len(r.Cols) - 1
	}
	return len(r.Cols)
}

// Row returns prefix row i, sharing Data.
func (r *Result) Row(i int) []graph.NodeID {
	w := r.Width()
	return r.Data[i*w : (i+1)*w : (i+1)*w]
}

// Len returns the number of result rows.
func (r *Result) Len() int { return r.N }

// ColIndex returns the position of pattern node in Cols, or -1.
func (r *Result) ColIndex(node int) int { return slices.Index(r.Cols, node) }

// HasCol reports whether the pattern node is bound in the result.
func (r *Result) HasCol(node int) bool { return r.ColIndex(node) >= 0 }

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
// given order, preserving row order: the one place that builds row
// headers. Each cell is written once, straight into the requested order;
// a plain result already in that order keeps its data, and only the
// headers are new.
func (r *Result) Table(nodes []int) (*Table, error) {
	src, err := r.Order(nodes)
	if err != nil {
		return nil, err
	}
	identity := true
	for j, s := range src {
		identity = identity && s == j
	}
	if identity && r.Exp == nil {
		return &Table{Cols: r.Cols, Rows: rowHeaders(r.Data, len(r.Cols), r.N)}, nil
	}
	if identity {
		src = nil
	}
	out := NewTable(nodes...)
	out.Rows = rowHeaders(r.flat(src), len(nodes), r.N)
	return out, nil
}

// rowHeaders carves n rows of width w out of data, each a full-capacity
// slice, so appending to one never bleeds into its neighbour.
func rowHeaders(data []graph.NodeID, w, n int) [][]graph.NodeID {
	if n == 0 {
		return nil
	}
	rows := make([][]graph.NodeID, n)
	for i := range rows {
		rows[i] = data[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// flat writes the result's N rows out row-major into one exact slice,
// output column j taken from source column src[j] (a nil src is the
// identity).
func (r *Result) flat(src []int) []graph.NodeID {
	w := len(r.Cols)
	out := make([]graph.NodeID, r.N*w)
	o := 0
	if r.Exp == nil {
		for i := 0; i < r.N; i++ {
			prefix := r.Row(i)
			if src == nil {
				copy(out[o:], prefix)
			}
			for j, s := range src {
				out[o+j] = prefix[s]
			}
			o += w
		}
		return out
	}
	last := w - 1
	for i, list := range r.Exp {
		prefix := r.Row(i)
		for _, n := range list {
			row := out[o : o+w]
			o += w
			if src == nil {
				copy(row, prefix)
				row[last] = n
				continue
			}
			for j, s := range src {
				if s == last {
					row[j] = n
				} else {
					row[j] = prefix[s]
				}
			}
		}
	}
	return out
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
		r.Data = r.Data[:limit*r.Width()]
	} else {
		n := 0
		for i, list := range r.Exp {
			if n+len(list) >= limit {
				r.Exp[i] = list[:limit-n]
				r.Data, r.Exp = r.Data[:(i+1)*r.Width()], r.Exp[:i+1]
				break
			}
			n += len(list)
		}
	}
	r.N = limit
	return true
}

// Project returns a new plain result with only the given pattern-node
// columns, in the given order, with duplicate rows removed; r must be
// plain.
func (r *Result) Project(nodes []int) (*Result, error) {
	if r.Exp != nil {
		return nil, fmt.Errorf("rjoin: project of a factorised result")
	}
	idx := make([]int, len(nodes))
	for i, n := range nodes {
		idx[i] = r.ColIndex(n)
		if idx[i] < 0 {
			return nil, fmt.Errorf("rjoin: project: node %d not bound in %v", n, r.Cols)
		}
	}
	out := &Result{Cols: append([]int(nil), nodes...)}
	seen := make(map[string]struct{}, r.N)
	var key []byte
	for i := 0; i < r.N; i++ {
		row := r.Row(i)
		key = key[:0]
		for _, j := range idx {
			key = appendNodeKey(key, row[j])
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		for _, j := range idx {
			out.Data = append(out.Data, row[j])
		}
		out.N++
	}
	return out, nil
}

// EncodeRows serialises a plain result's rows (not its schema) for spilling
// a temporal table to storage, as the paper's disk-based executor does
// between operators. Layout: row count, column count, then the data as it
// lies in memory — row-major little-endian uint32 node IDs.
func (r *Result) EncodeRows() []byte {
	data := r.Data[:r.N*r.Width()]
	b := make([]byte, 8+4*len(data))
	putU32(b, uint32(r.N))
	putU32(b[4:], uint32(r.Width()))
	for i, v := range data {
		putU32(b[8+4*i:], uint32(v))
	}
	return b
}

// DecodeRows replaces the result's rows with the contents of an EncodeRows
// buffer, leaving a plain result. The column count must match Cols; a
// buffer too short for its header or for the rows it declares is an error.
func (r *Result) DecodeRows(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("rjoin: decode buffer truncated: %d bytes", len(b))
	}
	n, w := int(u32(b)), int(u32(b[4:]))
	if w != len(r.Cols) {
		return fmt.Errorf("rjoin: decode width %d != %d columns", w, len(r.Cols))
	}
	body := b[8:]
	if w > 0 && n > len(body)/(4*w) {
		return fmt.Errorf("rjoin: decode buffer truncated: %d rows of width %d in %d bytes", n, w, len(b))
	}
	data := make([]graph.NodeID, n*w)
	for i := range data {
		data[i] = graph.NodeID(u32(body[4*i:]))
	}
	r.Data, r.Exp, r.N = data, nil, n
	return nil
}
