package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// Result is the temporal relation operators take and return, and what a
// plan run returns: rows of fixed width stored flat, row-major, in one
// []graph.NodeID. A plan's factorised tail (see exec.Run) is kept as the
// products the operators computed it as: Fetch's output is row ×
// partners(row[col]) per input row (Algorithm 2), and when the bound value
// sits in the table that entered the tail, every row a prefix row stands
// for expands by the same list. So a factorised Result holds the prefix
// rows and K expanded columns, each standing for one list per prefix row,
// instead of the rows of their product; the consumer — the server's
// encoder, or Table for callers that want rows — walks the prefix rows with
// their lists (Walk) and writes each output cell once, in the order it
// wants them, and nothing is copied in between.
//
// An expanded column stores no list header. An unfiltered one is its bound
// prefix column and the Fetch's partner table: every consumer re-reads a
// row's list from the table by the bound value (gdb.PartnerLists), which
// returns the very slice the Fetch saw. A column whose Fetch absorbed
// filters keeps its survivors back to back in append-only chunks, plus one
// length per prefix row. Both are ordinary heap memory that nothing mutates
// once the Result is returned, so a Result stays valid after the epoch it
// was read on is released and retired: it holds no page, pin or slot, and
// any number of goroutines may consume it at once.
type Result struct {
	// Cols holds pattern node indexes, one per column, in the order the
	// plan bound them (the source-column order). The last K() of them are
	// the expanded columns.
	Cols []int
	// Data holds the prefix rows row-major with stride Width(): row i is
	// Data[i*w : (i+1)*w]. They are whole rows when K() is 0, otherwise rows
	// over the first Width() columns, each standing for the product of its
	// lists (see Walker), the column bound first the outermost loop and the
	// last the innermost.
	Data []graph.NodeID
	// N is the number of result rows: the number of prefix rows when K() is
	// 0, otherwise the result is the first N rows of the prefix rows'
	// products, concatenated in prefix-row order (a pushed-down limit can
	// cut inside one product).
	N int

	// exp holds the expanded columns, the k-th binding Cols[Width()+k].
	exp []expanded
}

// expanded is one expanded column of a factorised Result: per prefix row, an
// ascending list of the column's values. An unfiltered column re-reads the
// list from its partner table by the value in prefix column bound; a stored
// one — a Fetch that absorbed filters, or one on the counted-I/O read path,
// whose lists live in pages — keeps the lists back to back in append-only
// chunks, with each prefix row's length in lens. A list is never split
// across chunks, so a walk finds row i's list where row i-1's ended, or at
// the start of the next chunk it fits.
type expanded struct {
	bound  int
	lists  gdb.PartnerLists
	stored bool
	lens   []uint32
	chunks [][]graph.NodeID
}

// maxExpanded bounds K(): a plan binds at most 17 pattern nodes, at least
// one of them in the prefix.
const maxExpanded = 16

// columnChunk bounds a stored column's chunk, in node IDs (32 KB). A
// column's first chunk holds 64 and each next one twice its predecessor,
// so a column that keeps a few survivors allocates a few.
const columnChunk = 8192

// room returns space for n entries at the end of the column's chunks, in
// a new chunk when the last one has no room: a list is written there and
// then committed.
func (c *expanded) room(n int) []graph.NodeID {
	if n == 0 {
		return nil
	}
	last := len(c.chunks) - 1
	if last < 0 || cap(c.chunks[last])-len(c.chunks[last]) < n {
		size := 64
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), columnChunk)
		}
		c.chunks = append(c.chunks, make([]graph.NodeID, 0, max(n, size)))
		last++
	}
	a := c.chunks[last]
	return a[len(a) : len(a) : len(a)+n]
}

// commit records prefix row i's list: l, which starts where room's space
// started unless it is empty.
func (c *expanded) commit(i int, l []graph.NodeID) {
	if len(l) > 0 {
		last := len(c.chunks) - 1
		c.chunks[last] = c.chunks[last][:len(c.chunks[last])+len(l)]
	}
	c.lens[i] = uint32(len(l))
}

// keep stores a copy of prefix row i's list l.
func (c *expanded) keep(i int, l []graph.NodeID) {
	if len(l) > 0 {
		l = append(c.room(len(l)), l...)
	}
	c.commit(i, l)
}

// Factorised returns a factorised result over cols: prefix rows data,
// row-major, and k expanded columns whose lists are given with stride k —
// prefix row i's are lists[i*k:(i+1)*k], the j-th that of column
// Width()+j, ascending — standing for the first n rows of the products.
// The lists are copied into stored columns, so the prefix rows may be
// empty (Width() 0), as no operator's are. It is how a caller builds a
// factorised result without running the operators; it panics unless k is
// between 1 and 16 and data and lists hold the same number of prefix rows.
func Factorised(cols []int, data []graph.NodeID, k int, lists [][]graph.NodeID, n int) *Result {
	w, rows := len(cols)-k, 0
	if k >= 1 {
		rows = len(lists) / k
	}
	if k < 1 || k > maxExpanded || w < 0 || len(lists)%k != 0 || len(data) != rows*w {
		panic(fmt.Sprintf("rjoin: %d lists and %d cells for %d columns, %d expanded", len(lists), len(data), len(cols), k))
	}
	r := &Result{Cols: cols, Data: data, N: n, exp: make([]expanded, k)}
	for j := range r.exp {
		c := &r.exp[j]
		c.stored, c.lens = true, make([]uint32, rows)
		for i := 0; i < rows; i++ {
			c.keep(i, lists[i*k+j])
		}
	}
	return r
}

// K returns the number of expanded columns: 0 for a plain result.
func (r *Result) K() int { return len(r.exp) }

// Width is the stride of Data: the number of columns of a prefix row.
func (r *Result) Width() int { return len(r.Cols) - len(r.exp) }

// Row returns prefix row i, sharing Data.
func (r *Result) Row(i int) []graph.NodeID {
	w := r.Width()
	return r.Data[i*w : (i+1)*w : (i+1)*w]
}

// prefixRows returns the number of prefix rows: of a factorised result
// whose prefix rows are empty, every column is stored, with one length per
// prefix row.
func (r *Result) prefixRows() int {
	switch w := r.Width(); {
	case len(r.exp) == 0:
		return r.N
	case w == 0:
		return len(r.exp[0].lens)
	default:
		return len(r.Data) / w
	}
}

// A Walker visits a result's prefix rows in order, each with its K lists:
// the one sequential pass the server's encoder, Table and truncate make
// over a factorised result, and a tail Fetch over its input. It skips a
// prefix row that stands for no rows, and looks up no list after the first
// empty one of a row. Each list is shared and must not be mutated; the
// consumer stops at the result's N rows. For a plain result it visits every
// row with no lists. Declare a Walker outside the loop that advances it: a
// variable of a for clause is copied into every iteration.
type Walker struct {
	r          *Result
	i, rows, w int
	n          int
	lists      [maxExpanded][]graph.NodeID
	at         [maxExpanded]struct{ chunk, off int }
}

// Walk returns a Walker before r's first prefix row.
func (r *Result) Walk() Walker {
	return Walker{r: r, i: -1, rows: r.prefixRows(), w: r.Width()}
}

// Next advances to the next prefix row that stands for at least one row,
// reporting false once there is none.
func (w *Walker) Next() bool {
	r := w.r
	for w.i+1 < w.rows {
		w.i++
		i, n := w.i, 1
		for k := range r.exp {
			c := &r.exp[k]
			var l []graph.NodeID
			switch {
			case c.stored:
				// Stored lists are read in order, the empty ones too.
				l = w.stored(k, int(c.lens[i]))
			case n > 0:
				l = c.lists.Of(r.Data[i*w.w+c.bound])
			}
			w.lists[k] = l
			n *= len(l)
		}
		if n > 0 {
			w.n = n
			return true
		}
	}
	return false
}

// stored returns the next n entries of stored column k: where its last
// list ended, or at the start of the next chunk that holds them.
func (w *Walker) stored(k, n int) []graph.NodeID {
	if n == 0 {
		return nil
	}
	c, at := &w.r.exp[k], &w.at[k]
	for at.off+n > len(c.chunks[at.chunk]) {
		at.chunk, at.off = at.chunk+1, 0
	}
	l := c.chunks[at.chunk][at.off : at.off+n : at.off+n]
	at.off += n
	return l
}

// Row returns the index of the current prefix row.
func (w *Walker) Row() int { return w.i }

// Prefix returns the current prefix row, sharing Data.
func (w *Walker) Prefix() []graph.NodeID {
	return w.r.Data[w.i*w.w : (w.i+1)*w.w : (w.i+1)*w.w]
}

// Lists returns the current prefix row's K lists, the k-th holding the
// values of column Width()+k. The slice is the Walker's and is overwritten
// by the next call to Next.
func (w *Walker) Lists() [][]graph.NodeID { return w.lists[:len(w.r.exp)] }

// Product returns the number of rows the current prefix row stands for:
// the product of its lists' lengths (1 for a plain result), before the cut
// at N.
func (w *Walker) Product() int { return w.n }

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
	if identity && len(r.exp) == 0 {
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
	k := len(r.exp)
	if k == 0 {
		for i, o := 0, 0; i < r.N; i, o = i+1, o+w {
			permute(out[o:o+w], r.Row(i), src)
		}
		return out
	}
	if k == 1 && src == nil {
		// An emitting Fetch's rows: each prefix row, then its partner. The
		// odometer below costs a few nanoseconds more per prefix row, which
		// every plan's written-out Fetches pay (EXPERIMENTS.md, "Served
		// path — factorised tail").
		pw, o, left := w-1, 0, r.N
		wk := r.Walk()
		for left > 0 && wk.Next() {
			list := wk.lists[0]
			list = list[:min(len(list), left)]
			left -= len(list)
			prefix := wk.Prefix()
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
	row, idx = row[:w], idx[:k]
	wk := r.Walk()
	for left > 0 && wk.Next() {
		lists := wk.Lists()
		copy(row, wk.Prefix())
		for j, l := range lists {
			idx[j], row[pw+j] = 0, l[0]
		}
		for {
			// The innermost list, as far as N reaches. In source order the
			// row is copied first and the list's value stored after it: a
			// copy that read the value just stored into row would stall.
			last := lists[k-1]
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
			j := k - 2
			for ; j >= 0; j-- {
				if idx[j]++; idx[j] < len(lists[j]) {
					row[pw+j] = lists[j][idx[j]]
					break
				}
				idx[j], row[pw+j] = 0, lists[j][0]
			}
			if j < 0 || left == 0 {
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
// dropped, and N stops the consumer inside it — the lists are untouched.
func (r *Result) truncate(limit int) bool {
	if limit <= 0 || r.N <= limit {
		return false
	}
	rows := limit
	if len(r.exp) > 0 {
		wk, n := r.Walk(), 0
		for wk.Next() {
			if n += wk.Product(); n >= limit {
				rows = wk.Row() + 1
				break
			}
		}
	}
	r.Data, r.N = r.Data[:rows*r.Width()], limit
	return true
}

// Project returns a new plain result with only the given pattern-node
// columns, in the given order, with duplicate rows removed; r must be
// plain.
func (r *Result) Project(nodes []int) (*Result, error) {
	if len(r.exp) != 0 {
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
	r.Data, r.exp, r.N = data, nil, n
	return nil
}
