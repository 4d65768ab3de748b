package rjoin

import (
	"fmt"
	"slices"

	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
)

// Result is the temporal relation operators take and return, and what a
// plan run returns: rows of fixed width stored flat, row-major, in one
// []graph.NodeID. A factorised Result keeps its Fetches' output as the
// nested products Algorithm 2 computes: prefix rows and a forest of K
// expanded columns over them, an f-tree (Olteanu and Závodný). Each column
// hangs under its parent — the prefix row or an earlier column, the one
// that binds the node its Fetch reads — and holds one list per element of
// that parent. The rows are a nested odometer over the columns in bind
// order, the innermost turning fastest: the step-by-step rows, in their
// order. A consumer — the server's encoder, or Table — walks them (Walker)
// and writes each output cell once, in the order it wants them. Nothing in
// a Result is mutated once it is returned, and it holds no page, pin or
// slot: it stays valid after its epoch is retired, and any number of
// goroutines may consume it at once. Its rows and stored columns are
// buffers of the Runtime whose operators made it: it is valid until that
// Runtime is released (Runtime.Release), and only the server releases one,
// once the response is written; every other caller's Results are the
// garbage collector's.
type Result struct {
	// Cols holds pattern node indexes, one per column, in the order the
	// plan bound them (the source-column order). The last K() of them are
	// the expanded columns.
	Cols []int
	// Data holds the prefix rows row-major with stride Width(): row i is
	// Data[i*w : (i+1)*w]. They are whole rows when K() is 0, otherwise rows
	// over the first Width() columns.
	Data []graph.NodeID
	// N is the number of result rows: the number of prefix rows when K() is
	// 0, otherwise the result is the first N rows the prefix rows stand for
	// (a pushed-down limit can cut inside one list).
	N int

	// exp holds the expanded columns, the k-th binding Cols[Width()+k].
	exp []expanded
}

// expanded is one expanded column: per element of its parent (expanded
// column parent, or the prefix row for -1), an ascending list. An
// unfiltered column stores nothing: every consumer re-reads the list from
// the partner table by the value in column bound (gdb.PartnerLists), the
// very slice the Fetch saw; one whose Fetch absorbed only semijoin groups
// re-reads its filtered table. A stored one — a Fetch that absorbed a
// Selection, or one on the counted-I/O read path — hangs under every
// column before it and keeps its lists as blocks in append-only chunks,
// each block's length in lens, in the order a walk reaches them, once
// each; a block is never split across chunks. elems is the number of
// elements of the parent (Result.elements), the most blocks it holds.
type expanded struct {
	bound, parent int
	lists         gdb.PartnerLists
	stored        bool
	elems         int
	lens          []uint32
	chunks        [][]graph.NodeID
}

// maxExpanded bounds K(): a plan binds at most 17 pattern nodes, at least
// one of them in the prefix.
const maxExpanded = 16

// columnChunk bounds a stored column's chunk, in node IDs (32 KB), unless
// one list is longer.
const columnChunk = 8192

// keep stores a copy of l as the next block, at the end of the last chunk
// or in a new one. A new chunk holds l and what the parent's remaining
// elements need at the mean of every block so far, but no more than what
// the column holds already (a hub list among the first blocks says little
// of the rest); where elems is not known, twice its predecessor.
func (c *expanded) keep(rt *Runtime, l []graph.NodeID) {
	c.lens = append(c.lens, uint32(len(l)))
	n, last := len(l), len(c.chunks)-1
	if n == 0 {
		return
	}
	if last < 0 || cap(c.chunks[last])-len(c.chunks[last]) < n {
		size := 64
		if last >= 0 {
			size = 2 * cap(c.chunks[last])
		}
		if b := len(c.lens); c.elems >= b {
			kept := n
			for _, ch := range c.chunks {
				kept += len(ch)
			}
			size = n + int(min(int64(kept)+64, int64(kept)*int64(c.elems-b)/int64(b)))
		}
		c.chunks = append(c.chunks, rt.nodeBuf(max(n, min(size, columnChunk))))
		last++
	}
	c.chunks[last] = append(c.chunks[last], l...)
}

// Nested builds a factorised result without running the operators: rows
// prefix rows in data (Width() may be 0) and a chain of k stored expanded
// columns, each under the one before it and the first under the prefix
// row, the j-th with the list list(j, i, row): i is the prefix row, and row
// holds it and the current value of each column before j. It stands for
// the first n rows, and panics on a bad shape.
func Nested(cols []int, data []graph.NodeID, rows, k int, list func(j, i int, row []graph.NodeID) []graph.NodeID, n int) *Result {
	w := len(cols) - k
	if k < 1 || k > maxExpanded || w < 0 || len(data) != rows*w {
		panic(fmt.Sprintf("rjoin: %d prefix rows in %d cells for %d columns, %d expanded", rows, len(data), len(cols), k))
	}
	r, row := &Result{Cols: cols, Data: data, N: n}, make([]graph.NodeID, len(cols))
	var rt Runtime // never released: r is the caller's
	for j := range k {
		r.Cols, r.exp = cols[:w+j+1], append(r.exp, expanded{parent: j - 1, stored: true})
		var u units
		for u.init(r, j, rows); u.next() > 0; {
			for c := range w + j {
				row[c] = u.Cell(c)
			}
			r.exp[j].keep(&rt, list(j, u.i, row[:w+j]))
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
// whose prefix rows are empty, the first column is stored, with a block for
// each.
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

// elements returns the number of elements of expanded column k, or of
// prefix rows for -1: the blocks a stored column under it holds. A stored
// column's are its entries; an unstored one's are counted by re-reading
// its lists, by the value of its parent at each of the parent's elements.
func (r *Result) elements(k int) int {
	if k < 0 {
		return r.prefixRows()
	}
	n, c := 0, &r.exp[k]
	if c.stored {
		for _, ch := range c.chunks {
			n += len(ch)
		}
		return n
	}
	r.values(c.parent, c.bound, func(v graph.NodeID) { n += len(c.lists.Of(v)) })
	return n
}

// values calls f with the value of source column col at each element of
// expanded column k, or of each prefix row for -1, in walk order; col is
// k's own column, or a prefix column for -1. An unstored column's bound
// column is its parent's (fetch hangs it there), so its elements are its
// lists, re-read per element of its parent.
func (r *Result) values(k, col int, f func(graph.NodeID)) {
	w := r.Width()
	switch {
	case k < 0:
		for i := range r.prefixRows() {
			f(r.Data[i*w+col])
		}
	case r.exp[k].stored:
		for _, ch := range r.exp[k].chunks {
			for _, v := range ch {
				f(v)
			}
		}
	default:
		c := &r.exp[k]
		r.values(c.parent, c.bound, func(u graph.NodeID) {
			for _, v := range c.lists.Of(u) {
				f(v)
			}
		})
	}
}

// branch returns the expanded column a step reading the given columns of r
// hangs under: the deepest of them, or -1 for prefix columns only. It
// reports false when two of them lie on different branches of the forest.
func (r *Result) branch(cols ...int) (int, bool) {
	w, deepest := r.Width(), -1
	for _, c := range cols {
		deepest = max(deepest, c-w)
	}
	for _, c := range cols {
		k := deepest
		for k > max(c-w, -1) {
			k = r.exp[k].parent
		}
		if c >= w && k != c-w {
			return 0, false
		}
	}
	return deepest, true
}

// cursor is where a walk reads a stored column's next block: its index in
// lens, and the chunk and offset it starts at unless it does not fit.
type cursor struct{ blk, chunk, off int32 }

// A Walker visits a factorised result's rows a run at a time: one position
// of the prefix row and every expanded column but the last, with the
// last's current list (Run). It is the rows' nested odometer, skipping each
// position some list leaves empty, and the one pass the encoder, Table,
// truncate and a Fetch over its input make. Lists are shared and must not
// be mutated; a consumer stops at the result's N rows. For a plain result
// each run is a prefix row standing for itself. Declare a Walker outside
// the loop that advances it: a for-clause variable is copied every
// iteration. A stored column hangs under every column before it (fetch
// writes its input out where it would not), so the walk reaches each
// element of its parent once, in the order the Fetch stored their blocks:
// it reads the column block after block.
type Walker struct {
	r               *Result
	i, rows, w, top int
	lists           [maxExpanded][]graph.NodeID
	pos             [maxExpanded]int32
	at              [maxExpanded]cursor
}

// Walk returns a Walker before r's first run.
func (r *Result) Walk() Walker {
	var w Walker
	w.init(r, len(r.exp), r.prefixRows())
	return w
}

// init readies w for a walk of r's first top expanded columns over rows
// prefix rows.
func (w *Walker) init(r *Result, top, rows int) {
	w.r, w.i, w.rows, w.w, w.top = r, -1, rows, r.Width(), top
}

// Next advances to the next run, reporting false once there is none.
func (w *Walker) Next() bool {
	j := w.top - 2
	if w.i < 0 {
		j = -1
	}
	for {
		switch {
		case j < 0:
			if w.i+1 >= w.rows {
				w.top = 0
				return false
			}
			w.i, j = w.i+1, -1
		case int(w.pos[j])+1 < len(w.lists[j]):
			w.pos[j]++
		default:
			j--
			continue
		}
		// Set the lists below the column that advanced, stopping at an
		// empty one: the column before it advances next.
		k := j + 1
		for ; k < w.top; k++ {
			var l []graph.NodeID
			if c := &w.r.exp[k]; c.stored {
				l = w.block(k)
			} else {
				l = c.lists.Of(w.Cell(c.bound))
			}
			w.lists[k], w.pos[k] = l, 0
			if len(l) == 0 {
				break
			}
		}
		if k == w.top {
			return true
		}
		j = k - 1
	}
}

// block returns stored column k's next block and moves its cursor past
// it.
func (w *Walker) block(k int) []graph.NodeID {
	c, at := &w.r.exp[k], &w.at[k]
	n := int32(c.lens[at.blk])
	at.blk++
	if n == 0 {
		return nil
	}
	for at.off+n > int32(len(c.chunks[at.chunk])) {
		at.chunk, at.off = at.chunk+1, 0
	}
	l := c.chunks[at.chunk][at.off : at.off+n : at.off+n]
	at.off += n
	return l
}

// Row returns the index of the current prefix row.
func (w *Walker) Row() int { return w.i }

// Cell returns the current value of source column col: a prefix cell, or
// an expanded column's current element. The last expanded column's is the
// first of its run.
func (w *Walker) Cell(col int) graph.NodeID {
	if col < w.w {
		return w.r.Data[w.i*w.w+col]
	}
	k := col - w.w
	return w.lists[k][w.pos[k]]
}

// Run returns the last expanded column's current list: the run's rows,
// one per entry, before the cut at N. It is nil for a plain result, whose
// run is its prefix row.
func (w *Walker) Run() []graph.NodeID {
	if len(w.r.exp) == 0 {
		return nil
	}
	return w.lists[len(w.r.exp)-1]
}

// units walks the first k expanded columns of a result, the input of
// column k, a unit at a time: the input rows that reach one element of
// column k's parent — an element of the last input column when k hangs
// under it, else all of its run, or a prefix row when k is 0.
type units struct {
	Walker
	k, n int
	each bool
}

func (u *units) init(r *Result, k, rows int) {
	u.Walker.init(r, k, rows)
	u.k, u.each = k, k > 0 && r.exp[k].parent == k-1
}

// next moves to the next unit and returns its number of input rows, or 0
// once there is none.
func (u *units) next() int {
	if u.each && int(u.pos[u.k-1])+1 < u.n {
		u.pos[u.k-1]++
		return 1
	}
	if !u.Next() {
		return 0
	}
	if u.n = 1; u.k > 0 {
		u.n = len(u.lists[u.k-1])
	}
	if u.each {
		return 1
	}
	return u.n
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
	if identity && len(r.exp) == 0 {
		return &Table{Cols: r.Cols, Rows: rowHeaders(r.Data, len(r.Cols), r.N)}, nil
	}
	if identity {
		src = nil
	}
	out := NewTable(nodes...)
	out.Rows = rowHeaders(r.flat(new(Runtime), src), len(nodes), r.N)
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
// identity). A factorised result is written a run at a time (see Walker):
// row holds the run's cells but the last, and each entry of its list ends
// one row.
func (r *Result) flat(rt *Runtime, src []int) []graph.NodeID {
	w := len(r.Cols)
	out := rt.nodeBuf(r.N * w)[:r.N*w]
	if len(r.exp) == 0 {
		for i, o := 0, 0; i < r.N; i, o = i+1, o+w {
			permute(out[o:o+w], r.Row(i), src)
		}
		return out
	}
	inner, o, left := w-1, 0, r.N
	// A plan binds at most 17 pattern nodes (16 edges), so row lives on the
	// stack.
	var rowBuf [32]graph.NodeID
	row := rowBuf[:0]
	if w > len(rowBuf) {
		row = make([]graph.NodeID, 0, w)
	}
	row = row[:w]
	wk := r.Walk()
	for left > 0 && wk.Next() {
		for j := range inner {
			row[j] = wk.Cell(j)
		}
		last := wk.Run()
		last = last[:min(len(last), left)]
		left -= len(last)
		for _, v := range last {
			// In source order the row is copied first and the list's value
			// stored after it: a copy that read the value just stored into
			// row would stall.
			if src == nil {
				copy(out[o:o+inner], row)
				out[o+inner] = v
			} else {
				row[inner] = v
				permute(out[o:o+w], row, src)
			}
			o += w
		}
	}
	return out
}

// rowsOf returns r as a filter of the given pattern nodes reads it: as it
// is where they are prefix columns and no column stores lists — the filter
// then keeps or drops whole prefix rows — else written out.
func (rt *Runtime) rowsOf(r *Result, nodes ...int) *Result {
	expandedCol := func(n int) bool { return r.ColIndex(n) >= r.Width() }
	if slices.ContainsFunc(nodes, expandedCol) || slices.ContainsFunc(r.exp, func(c expanded) bool { return c.stored }) {
		return rt.flatten(r)
	}
	return r
}

// Flatten returns r written out: a plain result over the same columns, in
// the same order, with the same rows. A plain r is returned as it is. It is
// what a plan does where a step reads rows, not lists (see exec.Run).
func (r *Result) Flatten() *Result { return new(Runtime).flatten(r) }

// flatten is Flatten writing into a buffer of rt's.
func (rt *Runtime) flatten(r *Result) *Result {
	if len(r.exp) == 0 {
		return r
	}
	return &Result{Cols: r.Cols, Data: r.flat(rt, nil), N: r.N}
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
// cut lands inside one prefix row's rows: the prefix rows after it are
// dropped, and N stops the consumer inside it — the lists are untouched.
func (r *Result) truncate(limit int) bool {
	if limit <= 0 || r.N <= limit {
		return false
	}
	rows := limit
	if len(r.exp) > 0 {
		wk, n := r.Walk(), 0
		for wk.Next() {
			if n += len(wk.Run()); n >= limit {
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
