package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/graph"
)

// Result is the temporal relation operators take and return, and what a
// plan run returns: rows of fixed width stored flat, row-major, in one
// []graph.NodeID. A plan's factorised tail (see exec.Run) is kept as the
// products the operators computed it as: Fetch's output is row ×
// partners(row[col]) per input row (Algorithm 2), and when the bound value
// sits in the table that entered the tail, every row a prefix row stands
// for expands by the same list. So a factorised Result holds the prefix
// rows and K lists per prefix row — each a shared immutable slice of the
// epoch's partner table, or the survivors of its absorbed filters — instead
// of the rows of their product; the consumer — the server's encoder, or
// Table for callers that want rows — writes each output cell once, in the
// order it wants them, and nothing is copied in between.
//
// The lists are ordinary heap slices that nothing mutates after they are
// published to a slot, so a Result stays valid after the epoch it was read
// on is released and retired: it holds no page, pin or slot, only memory
// the garbage collector keeps for it.
type Result struct {
	// Cols holds pattern node indexes, one per column, in the order the
	// plan bound them (the source-column order). The last K of them are
	// the expanded columns.
	Cols []int
	// Data holds the prefix rows row-major with stride Width(): row i is
	// Data[i*w : (i+1)*w]. They are whole rows when K is 0, otherwise rows
	// over the first Width() columns, one per K entries of Exp.
	Data []graph.NodeID
	// Exp holds K lists per prefix row, row-major with stride K: prefix row
	// i's are Exp[i*K : (i+1)*K], the k-th holding the values of column
	// Width()+k, ascending. Row i stands for the product of its lists, the
	// column bound first the outermost loop and the last the innermost. The
	// lists are shared with the read path and must not be mutated (the
	// slice of lists itself belongs to the Result). Nil when K is 0.
	Exp [][]graph.NodeID
	// K is the number of expanded columns: 0 for a plain result.
	K int
	// N is the number of result rows: the number of prefix rows when K is
	// 0, otherwise the result is the first N rows of the prefix rows'
	// products, concatenated in prefix-row order (a pushed-down limit can
	// cut inside one product).
	N int
}

// Width is the stride of Data: the number of columns of a prefix row.
func (r *Result) Width() int { return len(r.Cols) - r.K }

// Row returns prefix row i, sharing Data.
func (r *Result) Row(i int) []graph.NodeID {
	w := r.Width()
	return r.Data[i*w : (i+1)*w : (i+1)*w]
}

// prefixRows returns the number of prefix rows.
func (r *Result) prefixRows() int {
	if r.K == 0 {
		return r.N
	}
	return len(r.Exp) / r.K
}

// lists returns prefix row i's K lists.
func (r *Result) lists(i int) [][]graph.NodeID { return r.Exp[i*r.K : (i+1)*r.K] }

// rowsAt returns the number of result rows prefix row i stands for: the
// product of its lists' lengths (1 for a plain result), before the cut at
// N.
func (r *Result) rowsAt(i int) int { return product(r.lists(i)) }

// product returns the number of rows lists stand for: the product of their
// lengths (1 for no lists).
func product(lists [][]graph.NodeID) int {
	n := 1
	for _, l := range lists {
		n *= len(l)
	}
	return n
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
	if identity && r.K == 0 {
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
// identity). A factorised result's products are walked like an odometer:
// row holds the current source row, and the innermost list turns fastest.
func (r *Result) flat(src []int) []graph.NodeID {
	w := len(r.Cols)
	out := make([]graph.NodeID, r.N*w)
	if r.K == 0 {
		for i, o := 0, 0; i < r.N; i, o = i+1, o+w {
			permute(out[o:o+w], r.Row(i), src)
		}
		return out
	}
	if r.K == 1 && src == nil {
		// An emitting Fetch's rows: each prefix row, then its partner. The
		// odometer below costs a few nanoseconds more per prefix row, which
		// every plan's written-out Fetches pay (EXPERIMENTS.md, "Served
		// path — factorised tail").
		pw, o, left := w-1, 0, r.N
		for i, list := range r.Exp {
			list = list[:min(len(list), left)]
			left -= len(list)
			prefix := r.Data[i*pw : i*pw+pw]
			for _, v := range list {
				row := out[o : o+w]
				copy(row, prefix)
				row[pw] = v
				o += w
			}
		}
		return out
	}
	pw, inner, o, left := r.Width(), w-1, 0, r.N
	// A plan binds at most 17 pattern nodes (16 edges), so row and idx
	// live on the stack.
	var rowBuf [32]graph.NodeID
	var idxBuf [32]int
	row, idx := rowBuf[:0], idxBuf[:0]
	if w > len(rowBuf) {
		row, idx = make([]graph.NodeID, 0, w), make([]int, 0, w)
	}
	row, idx = row[:w], idx[:r.K]
	for i := 0; left > 0; i++ {
		if r.rowsAt(i) == 0 {
			continue
		}
		lists := r.lists(i)
		copy(row, r.Row(i))
		for k, l := range lists {
			idx[k], row[pw+k] = 0, l[0]
		}
		for {
			// The innermost list, as far as N reaches. In source order the
			// row is copied first and the list's value stored after it: a
			// copy that read the value just stored into row would stall.
			last := lists[r.K-1]
			last = last[:min(len(last), left)]
			left -= len(last)
			for _, v := range last {
				if src == nil {
					copy(out[o:o+inner], row)
					out[o+inner] = v
				} else {
					row[inner] = v
					permute(out[o:o+w], row, src)
				}
				o += w
			}
			// Advance the odometer over the outer lists: the innermost of
			// them turns, and a list that wraps carries into the one
			// outside it.
			k := r.K - 2
			for ; k >= 0; k-- {
				if idx[k]++; idx[k] < len(lists[k]) {
					row[pw+k] = lists[k][idx[k]]
					break
				}
				idx[k], row[pw+k] = 0, lists[k][0]
			}
			if k < 0 || left == 0 {
				break
			}
		}
	}
	return out
}

// permute writes row into dst with dst[j] = row[src[j]], or a copy for a
// nil src.
func permute(dst, row []graph.NodeID, src []int) {
	if src == nil {
		copy(dst, row)
		return
	}
	for j, s := range src {
		dst[j] = row[s]
	}
}

// truncate cuts the result to its first limit rows (limit <= 0 is no
// limit) and reports whether rows were dropped. In a factorised result the
// cut lands inside one prefix row's product: the prefix rows after it are
// dropped, and N stops the consumer inside it — the shared lists are
// untouched.
func (r *Result) truncate(limit int) bool {
	if limit <= 0 || r.N <= limit {
		return false
	}
	if r.K == 0 {
		r.Data = r.Data[:limit*r.Width()]
	} else {
		for i, n := 0, 0; ; i++ {
			if n += r.rowsAt(i); n >= limit {
				r.Data, r.Exp = r.Data[:(i+1)*r.Width()], r.Exp[:(i+1)*r.K]
				break
			}
		}
	}
	r.N = limit
	return true
}

// Project returns a new plain result with only the given pattern-node
// columns, in the given order, with duplicate rows removed; r must be
// plain.
func (r *Result) Project(nodes []int) (*Result, error) {
	if r.K != 0 {
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
	r.Data, r.Exp, r.K, r.N = data, nil, 0, n
	return nil
}
