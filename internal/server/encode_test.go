package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"fastmatch/internal/exec"
	"fastmatch/internal/gdb"
	"fastmatch/internal/graph"
	"fastmatch/internal/pattern"
	"fastmatch/internal/rjoin"
)

// plainResult is n rows over cols with values that exercise every digit
// count, including NodeID 0 and math.MaxInt32.
func plainResult(cols []int, n int) *rjoin.Result {
	w := len(cols)
	r := &rjoin.Result{Cols: cols, Data: make([]graph.NodeID, n*w), N: n}
	for i := 0; i < n; i++ {
		row := r.Row(i)
		for j := range row {
			switch j % 3 {
			case 0:
				row[j] = graph.NodeID(i)
			case 1:
				row[j] = graph.NodeID(i * 7919 % 1_000_003)
			default:
				row[j] = graph.NodeID(math.MaxInt32 - i)
			}
		}
	}
	return r
}

// factorisedResult is a Result over cols whose last column is expanded: one
// prefix row per entry of lens, standing for that many rows.
func factorisedResult(cols []int, lens ...int) *rjoin.Result {
	k1 := make([][]int, len(lens))
	for i, n := range lens {
		k1[i] = []int{n}
	}
	return productResult(cols, k1)
}

// productResult is a Result over cols whose last k columns are expanded,
// k being the length of each entry of lens: one prefix row per entry,
// whose lists have those lengths, standing for their product.
func productResult(cols []int, lens [][]int) *rjoin.Result {
	k := 1
	if len(lens) > 0 {
		k = len(lens[0])
	}
	var data []graph.NodeID
	var exp [][]graph.NodeID
	n := 0
	for i, ls := range lens {
		prefix := make([]graph.NodeID, len(cols)-k)
		for j := range prefix {
			prefix[j] = graph.NodeID((i*31 + j) * (j*1009 + 1))
		}
		if i == 1 {
			for j := range prefix {
				prefix[j] = math.MaxInt32 - graph.NodeID(j)
			}
		}
		data = append(data, prefix...)
		rows := 1
		for c, n := range ls {
			list := make([]graph.NodeID, n)
			for x := range list {
				list[x] = graph.NodeID(x*(i+1) + c*7)
			}
			if n > 1 {
				list[n-1] = math.MaxInt32 - graph.NodeID(c)
			}
			exp = append(exp, list)
			rows *= n
		}
		n += rows
	}
	return factorised(cols, data, k, exp, n)
}

// cut is r with only its first n rows: the prefix rows past them dropped,
// as a pushed-down limit leaves it.
func cut(r *rjoin.Result, n int) *rjoin.Result {
	c := *r
	wk, rows := r.Walk(), 0
	for rows < n && wk.Next() {
		if rows += len(wk.Run()); rows >= n {
			c.Data = r.Data[:(wk.Row()+1)*r.Width()]
		}
	}
	c.N = n
	return &c
}

func identityNodes(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// wantBody is what encoding/json writes for the response: the rows written
// out by Result.Table in pattern-node order.
func wantBody(t *testing.T, res *Result) []byte {
	t.Helper()
	tab, err := res.rows.Table(res.nodes)
	if err != nil {
		t.Fatal(err)
	}
	resp := QueryResponse{
		Cols: res.Cols, Rows: tab.Rows, RowCount: tab.Len(), Truncated: res.Truncated,
		PlanCached: res.PlanCached, ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if resp.Rows == nil {
		resp.Rows = [][]graph.NodeID{}
	}
	if resp.RowCount != res.rows.N {
		t.Fatalf("Result.N = %d but Table wrote %d rows", res.rows.N, resp.RowCount)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

func encodingCases() map[string]*Result {
	names := []string{"A", "B", "C", "D", "E"}
	fact := func(cols []int, lens ...int) *Result {
		return &Result{Cols: names[:len(cols)], rows: factorisedResult(cols, lens...), nodes: identityNodes(len(cols))}
	}
	plain := func(cols []int, n int) *Result {
		return &Result{Cols: names[:len(cols)], rows: plainResult(cols, n), nodes: identityNodes(len(cols))}
	}
	prod := func(r *rjoin.Result) *Result {
		return &Result{Cols: names[:len(r.Cols)], rows: r, nodes: identityNodes(len(r.Cols))}
	}
	k2 := productResult([]int{1, 0, 2}, [][]int{{2, 3}, {0, 4}, {3, 1}, {4, 0}, {1, 5}})
	k3 := productResult([]int{3, 0, 2, 1}, [][]int{{2, 2, 3}, {1, 0, 2}, {3, 1, 2}, {1, 1, 1}})
	cases := map[string]*Result{
		"plain empty":       plain([]int{0, 1}, 0),
		"plain one row":     plain([]int{0}, 1),
		"plain identity":    plain([]int{0, 1, 2}, 50),
		"plain permuted":    plain([]int{2, 0, 3, 1}, 50),
		"plain 100k rows":   plain([]int{1, 2, 0}, 100_000),
		"expanded first":    fact([]int{1, 2, 0}, 3, 1, 4),
		"expanded middle":   fact([]int{0, 2, 1}, 3, 1, 4),
		"expanded last":     fact([]int{1, 0, 2}, 3, 1, 4),
		"expanded only":     fact([]int{1, 0}, 2, 5),
		"empty lists":       fact([]int{0, 2, 1}, 0, 2, 0, 0, 3, 0),
		"factorised empty":  fact([]int{0, 1, 2}),
		"all lists empty":   fact([]int{0, 1, 2}, 0, 0),
		"factorised 1 row":  fact([]int{2, 1, 0}, 1),
		"factorised 100k":   fact([]int{3, 0, 2, 1}, 60_000, 0, 1, 39_999),
		"many short blocks": fact([]int{1, 0}, make([]int, 3000)...),
		// Two and three expanded columns, wherever they land, whole and cut
		// by a limit inside an inner list, on an outer list's boundary and
		// inside a prefix row's product.
		"product K=2":                 prod(k2),
		"product K=2 expanded first":  prod(productResult([]int{2, 1, 0}, [][]int{{3, 2}, {1, 1}, {2, 4}})),
		"product K=2 cut in inner":    prod(cut(k2, 4)),
		"product K=2 cut on outer":    prod(cut(k2, 9)),
		"product K=2 cut at 1":        prod(cut(k2, 1)),
		"product K=3":                 prod(k3),
		"product K=3 cut in product":  prod(cut(k3, 7)),
		"product K=3 cut on boundary": prod(cut(k3, 12)),
		"product K=3 no prefix":       prod(productResult([]int{2, 0, 1}, [][]int{{2, 1, 3}, {3, 2, 2}})),
		"product 100k":                prod(cut(productResult([]int{0, 2, 1}, [][]int{{95, 540}, {432, 540}}), 100_000)),
	}
	for name, cols := range map[string][]int{
		"digit boundaries first":  {1, 2, 3, 0},
		"digit boundaries middle": {0, 3, 2, 1},
		"digit boundaries last":   {1, 0, 3, 2},
		"digit boundaries pair":   {1, 0},
	} {
		cases[name] = &Result{Cols: names[:len(cols)], rows: digitBoundaryResult(cols), nodes: identityNodes(len(cols))}
	}
	// Heads and tails of 17–32 bytes, one 32-byte store, and of 33–45,
	// finished by a copy: 3 or 4 prefix cells of 6, 8 or 10 digits with the
	// expanded column first, in the middle and last.
	for _, tc := range []struct {
		where  string
		cols   []int
		digits []int
	}{
		{"first", []int{1, 2, 3, 0}, []int{6, 8, 10}},
		{"middle", []int{0, 2, 3, 1}, []int{10}},
		{"last", []int{0, 1, 2, 3}, []int{6, 8, 10}},
		{"middle of 5", []int{0, 2, 3, 4, 1}, []int{6, 10}},
		{"centre of 5", []int{0, 1, 3, 4, 2}, []int{10}},
	} {
		for _, d := range tc.digits {
			name := fmt.Sprintf("wide %d-digit cells, expanded %s", d, tc.where)
			cases[name] = &Result{Cols: names[:len(tc.cols)], rows: wideCellResult(tc.cols, d), nodes: identityNodes(len(tc.cols))}
		}
	}
	// Rows as wide as rowRoom allows — every cell ten digits, the expanded
	// column last so the tail is "]" — whose tail stores reach the end of
	// the reserved room.
	var widest, short []graph.NodeID
	var widestExp, shortExp [][]graph.NodeID
	for i := range 20 {
		list := make([]graph.NodeID, 300)
		for k := range list {
			list[k] = graph.NodeID(1e9 + i*1000 + k)
		}
		widest = append(widest, math.MaxInt32-graph.NodeID(i))
		widestExp = append(widestExp, list)
	}
	cases["widest rows"] = prod(factorised([]int{0, 1}, widest, 1, widestExp, 20*300))
	many := cases["many short blocks"].rows
	for i := range 3000 {
		short = append(short, many.Row(i)...)
		shortExp = append(shortExp, []graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)})
	}
	cases["many short blocks"].rows = factorised(many.Cols, short, 1, shortExp, 6000)
	meta := &Result{
		Cols: []string{"a\"b", "<c>", "é"}, rows: plainResult([]int{0, 1, 2}, 2), nodes: identityNodes(3),
		Truncated: true, PlanCached: true, Elapsed: 1234567891 * time.Microsecond,
	}
	cases["escapes and flags"] = meta
	cases["tiny elapsed"] = &Result{Cols: nil, rows: plainResult([]int{0}, 1), nodes: identityNodes(1), Elapsed: 100 * time.Nanosecond}
	return cases
}

// TestPutNodeID: the table formatter writes what strconv writes, on every
// value up to 10⁶, on both sides of every power of ten up to 10⁹, and on
// math.MaxInt32 and the 10⁶ values below it; and its fixed-width stores
// reach at most 7 bytes past the digits.
func TestPutNodeID(t *testing.T) {
	var vals []int64
	for v := int64(0); v <= 1e6; v++ {
		vals = append(vals, v)
	}
	for p := int64(1); p <= 1e9; p *= 10 {
		vals = append(vals, p-1, p, p+1)
	}
	for v := int64(math.MaxInt32); v >= math.MaxInt32-1e6; v-- {
		vals = append(vals, v)
	}
	const at = 3
	b := make([]byte, at+10+7)
	for _, v := range vals {
		for i := range b {
			b[i] = '#'
		}
		want := strconv.FormatInt(v, 10)
		end := putNodeID(b, at, graph.NodeID(v))
		if got := string(b[at:end]); got != want || string(b[:at]) != "###" {
			t.Fatalf("putNodeID(%d) wrote %q after %q, want %q", v, got, b[:at], want)
		}
		if reach := bytes.LastIndexFunc(b, func(r rune) bool { return r != '#' }) + 1; reach > end+7 {
			t.Fatalf("putNodeID(%d) stored %d bytes past its %d digits", v, reach-end, len(want))
		}
	}
}

// digitBoundaryResult is a factorised Result over cols whose prefix cells
// and list values cross every digit-count boundary the formatter's table
// splits at — 9/10, 9999/10000, 99,999,999/100,000,000 — and reach
// math.MaxInt32. Every list value but the response's first is written by
// the run loop, so its inline digit cases see each side of 10⁴ and of 10⁸.
// At width 4 a head or tail of three cells can be longer than the 32 bytes
// one store writes.
func digitBoundaryResult(cols []int) *rjoin.Result {
	ids := []graph.NodeID{0, 9, 10, 9999, 10_000, 99_999_999, 100_000_000, 999_999_999, 1_000_000_000, math.MaxInt32}
	var data []graph.NodeID
	var exp [][]graph.NodeID
	n := 0
	for i := range ids {
		prefix := make([]graph.NodeID, len(cols)-1)
		for j := range prefix {
			prefix[j] = ids[(i+j)%len(ids)]
		}
		list := ids[i%3:]
		data = append(data, prefix...)
		exp = append(exp, list)
		n += len(list)
	}
	return factorised(cols, data, 1, exp, n)
}

// wideCellResult is a factorised Result over cols whose prefix cells all
// have the given number of digits, so its heads and tails are as long as
// the served tree patterns' or longer than one 32-byte store. Its lists
// cross every digit-count boundary, with a value of 10⁸ or more in each.
func wideCellResult(cols []int, digits int) *rjoin.Result {
	lo := int64(1)
	for range digits - 1 {
		lo *= 10
	}
	span := min(9*lo, math.MaxInt32-lo+1)
	ids := []graph.NodeID{0, 7, 42, 9999, 10_000, 123_456, 99_999_999, 100_000_000, 1_000_000_000, math.MaxInt32}
	var data []graph.NodeID
	var exp [][]graph.NodeID
	n := 0
	for i := range 12 {
		for j := range len(cols) - 1 {
			data = append(data, graph.NodeID(lo+int64(i*7919+j*104_729)*1_000_003%span))
		}
		list := make([]graph.NodeID, 0, 40)
		for k := range cap(list) {
			list = append(list, ids[(i+k)%len(ids)])
		}
		slices.Sort(list)
		exp = append(exp, list)
		n += len(list)
	}
	return factorised(cols, data, 1, exp, n)
}

// TestQueryResponseEncoding: the encoder must write, straight from the
// executor's result, exactly what encoding/json writes for the same
// response with its rows written out — so no client can tell the two apart
// — for plain results and for factorised ones wherever the expanded column
// lands, also when the pooled buffer comes back from an earlier response.
func TestQueryResponseEncoding(t *testing.T) {
	for name, res := range encodingCases() {
		want := wantBody(t, res)
		for range 2 {
			rec := httptest.NewRecorder()
			n, err := writeQueryResponse(rec, res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if body := rec.Body.Bytes(); !bytes.Equal(body, want) {
				t.Errorf("%s: HTTP body differs from json.Marshal + newline (%d vs %d bytes)\n got %.200s\nwant %.200s",
					name, len(body), len(want), body, want)
			}
			if n != int64(len(want)) {
				t.Errorf("%s: reported %d bytes, wrote %d", name, n, len(want))
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != 200 {
				t.Errorf("%s: status %d content type %q", name, rec.Code, ct)
			}
		}
	}
}

// FuzzEncodeResult: for a random Result — width 1 to 4 in any column
// order, plain or factorised over 1 to 3 expanded columns with lists of
// any length including 0, the columns all under the prefix rows or nested
// in a random forest (rjoin.Nested), whole or cut by a limit, IDs of every
// digit count — the body is json.Marshal's plus a newline, whether it
// leaves in one write or through a buffer smaller than a few rows. A
// nested result's rows written out (Table) are also held against a
// nested-loop enumeration of the forest that shares no code with the
// Walker.
func FuzzEncodeResult(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x83, 2, 1, 3, 9, 0xff, 0xff, 0xff, 0x7f, 0, 1, 0, 0, 0, 4, 8, 7, 6, 5})
	f.Add([]byte{0x82, 0, 1, 5, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 1, 1, 2, 3, 4})
	f.Add([]byte{0x03, 1, 0, 2, 7, 1, 2, 3, 4, 9, 4, 3, 2, 1, 3, 0, 0, 0, 0})
	// Wide rows: width 4, three prefix cells of the given digit count, the
	// shuffle bytes placing the expanded column, and five partners of 9
	// and 10 digits per row.
	wide := func(shuffle []byte, cellDigits byte) []byte {
		seed := append([]byte{0x83}, shuffle...)
		for r := range byte(3) {
			seed = append(seed, 5)
			for c := range byte(3) {
				seed = append(seed, cellDigits-1, r, c, 0x5a, 0x3c)
			}
			for k := range byte(5) {
				seed = append(seed, 8+k%2, k, 0x11*r, 0xc3, 0x7e)
			}
		}
		return seed
	}
	f.Add(wide([]byte{3, 2, 1}, 10)) // expanded last: a 35-byte head
	f.Add(wide([]byte{0, 2, 1}, 10)) // expanded first: a 34-byte tail
	f.Add(wide([]byte{1, 2, 1}, 6))  // expanded second: 9-byte head, 15-byte tail
	f.Add(wide([]byte{3, 2, 1}, 7))  // expanded last: a 26-byte head
	// Plain rows of four 9- and 10-digit cells.
	plainWide := []byte{0x03, 3, 2, 1}
	for r := range byte(4) {
		for c := range byte(4) {
			plainWide = append(plainWide, 8+c%2, r, c, 0xe1, 0x4b)
		}
	}
	f.Add(plainWide)
	// Two and three expanded columns, the second cut by a limit.
	f.Add([]byte{0x93, 2, 1, 3, 9, 0xff, 0xff, 0xff, 0x7f, 2, 3, 0, 1, 0, 0, 0, 4, 8, 7, 6, 5, 9, 1, 2, 3, 4, 0, 5, 5, 5, 5})
	f.Add([]byte{0xe3, 1, 0, 2, 7, 1, 2, 3, 4, 3, 2, 2, 9, 4, 3, 2, 1, 3, 0, 0, 0, 0, 8, 1, 1, 1, 1, 2, 2, 2, 2, 2, 17})
	// Forests: three columns in a chain under a one-cell prefix, and two
	// siblings under the first of three, cut by a limit.
	f.Add([]byte{0xa7, 0, 0, 1, 2, 0, 1, 2, 3, 4, 5, 3, 1, 2, 3, 4, 9, 4, 3, 2, 1, 5, 0, 0, 0, 0, 7, 1, 1, 1, 1, 2, 2, 2, 2, 4, 9, 8, 7, 6})
	f.Add([]byte{0xe7, 1, 2, 3, 0, 1, 1, 1, 2, 3, 4, 5, 3, 1, 2, 3, 4, 9, 4, 3, 2, 1, 5, 0, 0, 0, 0, 7, 1, 1, 1, 1, 2, 2, 2, 2, 4, 9, 8, 7, 6, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// id spends a byte on the digit count and four on the value.
		id := func() graph.NodeID {
			count := int(next()%10) + 1
			lo, hi := int64(0), int64(10)
			for range count - 1 {
				lo, hi = hi, hi*10
			}
			hi = min(hi, math.MaxInt32+1)
			v := int64(next()) | int64(next())<<8 | int64(next())<<16 | int64(next())<<24
			return graph.NodeID(lo + v%(hi-lo))
		}
		// The shape byte: width in its low bits, factorised in its top bit,
		// the number of expanded columns in bits 4–5, a cut by a limit in
		// bit 6 and a forest in bit 2.
		shape := next()
		width, isFactorised := 1+int(shape%4), shape&0x80 != 0
		cols := identityNodes(width)
		for i := width - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			cols[i], cols[j] = cols[j], cols[i]
		}
		r, k := &rjoin.Result{Cols: cols}, 0
		if isFactorised {
			k = 1 + int(shape>>4&3)%min(3, width)
		}
		// A forest spends a byte on each column's parent.
		var parents []int
		for j := range k * int(shape>>2&1) {
			parents = append(parents, int(next())%(j+1)-1)
		}
		var exp [][]graph.NodeID
		for rows := 0; len(data) > 0 && rows < 64; rows++ {
			row := make([]graph.NodeID, width-k)
			for j := range row {
				row[j] = id()
			}
			r.Data = append(r.Data, row...)
			n := 1
			for range k {
				list := make([]graph.NodeID, int(next()%6))
				for k := range list {
					list[k] = id()
				}
				slices.Sort(list)
				exp = append(exp, list)
				n *= len(list)
			}
			r.N += n
		}
		var model [][]graph.NodeID
		if parents != nil {
			r, model = fuzzForest(cols, r.Data, parents, exp)
		} else if isFactorised {
			r = factorised(cols, r.Data, k, exp, r.N)
		}
		if shape&0x40 != 0 && r.N > 0 {
			r = cut(r, 1+int(next())%r.N)
		}
		res := &Result{Cols: []string{"A", "B", "C", "D"}[:width], rows: r, nodes: identityNodes(width)}
		if model != nil {
			got, err := r.Table(r.Cols)
			if err != nil || !slices.EqualFunc(got.Rows, model[:r.N], slices.Equal[[]graph.NodeID]) {
				t.Fatalf("forest written out: %v (%v), enumerated %v", got.Rows, err, model[:r.N])
			}
		}
		want := wantBody(t, res)
		rec := httptest.NewRecorder()
		if _, err := writeQueryResponse(rec, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("body differs from json.Marshal + newline\n got %s\nwant %s", rec.Body.Bytes(), want)
		}
		src, err := r.Order(res.nodes)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		e := &encoder{w: &w, max: 64}
		if e.response(res, src); !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("body through a 64-byte buffer differs from json.Marshal + newline\n got %s\nwant %s", w.Bytes(), want)
		}
	})
}

// countingWriter records how the body arrived.
type countingWriter struct {
	bytes.Buffer
	writes, largest int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

// TestEncodeBufferBounded: with the buffer cap far below the body's size
// the encoder writes the body out in pieces — the same bytes — and its
// buffer never grows past the cap plus one row.
func TestEncodeBufferBounded(t *testing.T) {
	const bufCap = 4096
	for name, res := range encodingCases() {
		want := wantBody(t, res)
		src, err := res.rows.Order(res.nodes)
		if err != nil {
			t.Fatal(err)
		}
		e := &encoder{max: bufCap}
		for range 2 {
			var w countingWriter
			e.w, e.n, e.err = &w, 0, nil
			e.response(res, src)
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%s: body written in %d pieces differs from the single-buffer body (%d vs %d bytes)",
					name, w.writes, w.Len(), len(want))
			}
			if cap(e.buf) > bufCap+rowRoom(len(src)) || w.largest > bufCap {
				t.Fatalf("%s: buffer capacity %d, largest write %d, cap %d", name, cap(e.buf), w.largest, bufCap)
			}
			if len(want) > 2*bufCap && w.writes < len(want)/bufCap {
				t.Fatalf("%s: %d bytes arrived in %d writes", name, len(want), w.writes)
			}
			if e.n != int64(len(want)) {
				t.Fatalf("%s: counted %d bytes of %d", name, e.n, len(want))
			}
		}
	}
}

// TestEncodeRowRoom: the fixed-width stores of a row stay inside the room
// reserved for it. Each result is encoded into buffers whose capacity ends
// at every offset across the first four rows' reserve, so a run of rows
// ends at every offset of its last row's room before the buffer grows.
// The stores of a run are unchecked: bytes of the backing array past the
// capacity must come back untouched, and the rows must be those
// json.Marshal writes.
func TestEncodeRowRoom(t *testing.T) {
	for name, res := range encodingCases() {
		if res.rows.N > 10_000 {
			continue
		}
		body := wantBody(t, res)
		rows := body[bytes.Index(body, []byte(`"rows":[`))+8 : bytes.LastIndex(body, []byte(`],"row_count"`))]
		src, err := res.rows.Order(res.nodes)
		if err != nil {
			t.Fatal(err)
		}
		backing := make([]byte, 4*rowRoom(len(src))+64)
		for c := range 4 * rowRoom(len(src)) {
			for i := range backing {
				backing[i] = '#'
			}
			e := &encoder{w: io.Discard, max: maxPooledResponse, buf: backing[:0:c]}
			e.rows(res.rows, src)
			if !bytes.Equal(e.buf, rows) {
				t.Fatalf("%s: rows from a %d-byte buffer differ from json.Marshal's\n got %.200s\nwant %.200s", name, c, e.buf, rows)
			}
			if i := bytes.IndexFunc(backing[c:], func(r rune) bool { return r != '#' }); i >= 0 {
				t.Fatalf("%s: a %d-byte buffer was written %d bytes past its capacity", name, c, i+1)
			}
		}
	}
}

// failingWriter accepts limit bytes and then fails.
type failingWriter struct{ limit, writes int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.limit -= len(p); f.limit < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestEncodeStopsOnWriteError: once a write fails the rest of the result
// is not formatted.
func TestEncodeStopsOnWriteError(t *testing.T) {
	res := encodingCases()["factorised 100k"]
	src, _ := res.rows.Order(res.nodes)
	w := &failingWriter{limit: 10_000}
	e := &encoder{w: w, max: 4096}
	e.response(res, src)
	if e.err != io.ErrClosedPipe || w.writes != 3 {
		t.Fatalf("err %v after %d writes, want the pipe error on the third", e.err, w.writes)
	}
}

// TestEncodeAfterEpochRetired: a query's result holds the partner tables it
// read or the survivors it kept, not the epoch. Take a factorised result
// (its epoch is released when run returns), publish insert and delete
// batches that touch the partner tables it read — the successor's tables
// restart and the old epoch retires — and only then encode: the bytes are
// those encoded before the writes. So for a plain last Fetch, whose
// column re-reads the partner table's own lists, and for a fused one (the
// triangle's Fetch absorbs its closing Selection), whose column keeps the
// intersections. In the third case the query runs under a memo bound so
// small that every table fill forgets the epoch's tables, the one the
// result re-reads included, mid-query: its bytes are still those of the
// same query run with the tables kept.
func TestEncodeAfterEpochRetired(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		fused       bool
		forget      bool
	}{
		{"shared lists", "A->B; B->C", false, false},
		{"intersected lists", "A->B; B->C; A->C", true, false},
		{"forgotten tables", "A->B; B->C", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := gdb.Build(testGraph(1, 60), gdb.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s := New(db, Config{})
			ctx := context.Background()

			var res *Result
			var algo exec.Algorithm
			resets := db.DecodedMemoStats().Resets
			if tc.forget {
				db.SetDecodedMemoBound(1)
			}
			for _, algo = range []exec.Algorithm{exec.DP, exec.DPS} {
				fusedBefore := s.Stats().FusedFilters
				r, err := s.run(ctx, new(rjoin.Runtime), pattern.MustParse(tc.query), algo, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if r.rows.K() > 0 && r.rows.N > 0 && (s.Stats().FusedFilters > fusedBefore) == tc.fused {
					res = r
					break
				}
			}
			if res == nil {
				t.Fatalf("no planner ended %s on a Fetch (fused=%v): nothing factorised to test", tc.query, tc.fused)
			}
			encode := func(res *Result) []byte {
				rec := httptest.NewRecorder()
				if _, err := writeQueryResponse(rec, res); err != nil {
					t.Fatal(err)
				}
				return rec.Body.Bytes()
			}
			before := encode(res)
			if tc.forget {
				db.SetDecodedMemoBound(1 << 20)
				if now := db.DecodedMemoStats().Resets; now <= resets {
					t.Fatalf("no table was forgotten while %s ran (%d resets)", tc.query, now)
				}
				kept, err := s.run(ctx, new(rjoin.Runtime), pattern.MustParse(tc.query), algo, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				kept.Elapsed, kept.PlanCached = res.Elapsed, res.PlanCached
				if want := encode(kept); !bytes.Equal(before, want) {
					t.Fatalf("a result whose tables were forgotten encodes %d bytes, %d with the tables kept", len(before), len(want))
				}
			}

			// B and C nodes the result joins, and an A node: the new B→C, A→B
			// and A→C edges change W rows and subclusters of every table the
			// plan read.
			g := db.Graph()
			var a, b, c graph.NodeID
			for v := graph.NodeID(g.NumNodes() - 1); v >= 0; v-- {
				switch g.LabelNameOf(v) {
				case "A":
					a = v
				case "B":
					b = v
				case "C":
					c = v
				}
			}
			epoch := s.Stats().CurrentEpoch
			edges := [][2]graph.NodeID{{b, c}, {a, b}, {a, c}}
			if ir, err := s.InsertEdges(ctx, edges); err != nil || ir.Applied == 0 {
				t.Fatalf("insert: %+v %v", ir, err)
			}
			if dr, err := s.DeleteEdges(ctx, edges); err != nil || dr.Applied == 0 {
				t.Fatalf("delete: %+v %v", dr, err)
			}
			// A query on the new epoch refills the restarted tables.
			if _, err := s.Query(ctx, tc.query, "dp"); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.CurrentEpoch < epoch+2 || st.PinnedEpochs != 1 || st.SnapshotsRetired != st.CurrentEpoch {
				t.Fatalf("the result's epoch did not retire: %+v", st)
			}
			if after := encode(res); !bytes.Equal(after, before) {
				t.Fatalf("body changed after its epoch retired (%d vs %d bytes)", len(after), len(before))
			}
		})
	}
}

// TestEncodeConcurrentConsumers: a Result may be consumed by any number of
// goroutines at once — its unfiltered columns re-read the partner tables
// through a lookup that counts nothing — so Table and the encoder walking
// one result side by side give what each gives alone (run under -race).
func TestEncodeConcurrentConsumers(t *testing.T) {
	db, err := gdb.Build(testGraph(1, 60), gdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ctx := context.Background()
	tested, nested := 0, false
	for _, q := range []string{"A->B; B->C", "A->B; A->C", "A->B; B->C; A->C"} {
		res, err := s.run(ctx, new(rjoin.Runtime), pattern.MustParse(q), exec.DPS, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.rows.K() == 0 || res.rows.N == 0 {
			continue
		}
		tested++
		// A path's second Fetch reads the node the first bound: its column
		// nests under the first's.
		nested = nested || q == "A->B; B->C" && res.rows.K() == 2
		want := wantBody(t, res)
		rows, err := res.rows.Table(res.nodes)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					if g == 0 {
						got, err := res.rows.Table(res.nodes)
						if err != nil || !slices.EqualFunc(got.Rows, rows.Rows, slices.Equal[[]graph.NodeID]) {
							errs <- fmt.Sprintf("%s: Table beside the encoder: %d rows of %d (%v)", q, got.Len(), rows.Len(), err)
							return
						}
						continue
					}
					rec := httptest.NewRecorder()
					if _, err := writeQueryResponse(rec, res); err != nil || !bytes.Equal(rec.Body.Bytes(), want) {
						errs <- fmt.Sprintf("%s: encoder beside Table: %d bytes of %d (%v)", q, rec.Body.Len(), len(want), err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
	if tested == 0 || !nested {
		t.Fatalf("%d queries ended factorised, a nested one among them: %v", tested, nested)
	}
}

// TestServedBodyAndEncodeStats: over HTTP, every planner's answer is the
// in-process answer (the same Result, written out instead of encoded), and
// /stats response_bytes is exactly the bytes of the 200 bodies — an error
// response adds nothing — with encode_ms and factorised_steps moving too.
func TestServedBodyAndEncodeStats(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var shipped int64
	for _, algo := range []string{"dp", "dps"} {
		for _, q := range []string{"A->B", "A->B; B->C", "A->B; A->C; C->D", "A->B; B->C; C->A", "B->A"} {
			for _, limit := range []int{0, 5} {
				want, err := s.QueryOpts(context.Background(), q, algo, QueryOptions{Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				req, _ := json.Marshal(QueryRequest{Pattern: q, Algorithm: algo, Limit: limit})
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Fatalf("%s %s: %d %v", algo, q, resp.StatusCode, err)
				}
				shipped += int64(len(body))
				var got QueryResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.RowCount != len(want.Rows) || got.Truncated != want.Truncated || !slices.Equal(got.Cols, want.Cols) ||
					!slices.EqualFunc(got.Rows, want.Rows, slices.Equal[[]graph.NodeID]) {
					t.Fatalf("%s %s limit=%d: HTTP answer (%d rows, truncated=%v) differs from in-process (%d rows, truncated=%v)",
						algo, q, limit, got.RowCount, got.Truncated, len(want.Rows), want.Truncated)
				}
			}
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(`{"pattern": "A->"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := s.Stats(); st.ResponseBytes != shipped || st.EncodeMs <= 0 || resp.StatusCode != 400 {
		t.Fatalf("response_bytes %d for %d body bytes, encode_ms %v", st.ResponseBytes, shipped, st.EncodeMs)
	}
	// Every planner ends some of these plans on a Fetch, which keeps its
	// lists: /stats counts those steps.
	if st := s.Stats(); st.FactorisedSteps == 0 {
		t.Fatalf("factorised_steps %d after plans ending on a Fetch", st.FactorisedSteps)
	}
}

// servedResult is shaped like site->name on the 100k-node XMark graph the
// served benchmark reads: 95 prefix rows, each with 540 ascending partners
// about 185 apart across the whole node range.
func servedResult() *rjoin.Result {
	rnd := rand.New(rand.NewSource(1))
	var data []graph.NodeID
	var exp [][]graph.NodeID
	for i := range 95 {
		list := make([]graph.NodeID, 540)
		for k := range list {
			list[k] = graph.NodeID(k*185 + rnd.Intn(185))
		}
		data = append(data, graph.NodeID(i*1052+rnd.Intn(1052)))
		exp = append(exp, list)
	}
	return factorised([]int{0, 1}, data, 1, exp, 95*540)
}

// wideResult is shaped like the last Fetch of a served tree pattern (T4,
// T6): 3 prefix cells of served IDs before the expanded column, so each
// row's head is 20–23 bytes, and 190 prefix rows of 270 ascending
// partners — as many rows as servedResult.
func wideResult() *rjoin.Result {
	rnd := rand.New(rand.NewSource(2))
	var data []graph.NodeID
	var exp [][]graph.NodeID
	for range 190 {
		for range 3 {
			data = append(data, graph.NodeID(10_000+rnd.Intn(90_000)))
		}
		list := make([]graph.NodeID, 270)
		for k := range list {
			list[k] = graph.NodeID(k*370 + rnd.Intn(370))
		}
		exp = append(exp, list)
	}
	return factorised([]int{0, 1, 2, 3}, data, 1, exp, 190*270)
}

// productServedResult is shaped like F7-limit's factorised tail on the
// 100k-node XMark graph: a site's 432 descriptions × 540 names, served
// IDs, cut by the served limit at 10,000 rows.
func productServedResult() *rjoin.Result {
	rnd := rand.New(rand.NewSource(3))
	list := func(n, gap int) []graph.NodeID {
		l := make([]graph.NodeID, n)
		for k := range l {
			l[k] = graph.NodeID(k*gap + rnd.Intn(gap))
		}
		return l
	}
	return factorised([]int{0, 1, 2}, []graph.NodeID{1052}, 2, [][]graph.NodeID{list(432, 230), list(540, 185)}, 10000)
}

// BenchmarkEncodeResult times the row encoder into a warm buffer: a
// site->name-shaped factorised result with served IDs, the same shape with
// small consecutive IDs and math.MaxInt32, a tree-shaped one whose rows
// carry 3 prefix cells (wideResult), an F7-limit-shaped product of two
// lists (productServedResult), and a 4-column plain result of the size of
// the first. It fails if encoding allocates.
func BenchmarkEncodeResult(b *testing.B) {
	lens := make([]int, 95)
	for i := range lens {
		lens[i] = 540
	}
	fact := factorisedResult([]int{0, 1}, lens...)
	for _, bc := range []struct {
		name string
		r    *rjoin.Result
	}{
		{"served", servedResult()},
		{"factorised", fact},
		{"wide", wideResult()},
		{"product", productServedResult()},
		{"plain4", plainResult([]int{2, 0, 3, 1}, fact.N)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			src, err := bc.r.Order(identityNodes(len(bc.r.Cols)))
			if err != nil {
				b.Fatal(err)
			}
			e := &encoder{w: io.Discard, max: maxPooledResponse}
			e.rows(bc.r, src)
			size := len(e.buf)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.buf = e.buf[:0]
				e.rows(bc.r, src)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.r.N), "ns/row")
			if allocs := testing.AllocsPerRun(10, func() { e.buf = e.buf[:0]; e.rows(bc.r, src) }); allocs != 0 {
				b.Fatalf("encoding into a warm buffer allocates %.0f times per run", allocs)
			}
		})
	}
}

// factorised builds a factorised result whose k expanded columns all hang
// under the prefix rows in data: prefix row i's lists are
// lists[i*k:(i+1)*k], the j-th that of column Width()+j, and the result
// stands for the first n rows of their products.
func factorised(cols []int, data []graph.NodeID, k int, lists [][]graph.NodeID, n int) *rjoin.Result {
	parents := make([]int, k)
	for j := range parents {
		parents[j] = -1
	}
	return rjoin.Nested(cols, data, len(lists)/k, parents, func(j, i int, _ []graph.NodeID) []graph.NodeID { return lists[i*k+j] }, n)
}

// fuzzForest builds a nested result over cols from the fuzzer's lists: the
// prefix rows in data and an expanded column under each of parents (an
// earlier column or the prefix row), whose list is one of lists chosen by
// a hash of the prefix row and the column's ancestors' values. It returns
// the result and its rows in source-column order, enumerated by nested
// loops over the columns in bind order.
func fuzzForest(cols []int, data []graph.NodeID, parents []int, lists [][]graph.NodeID) (*rjoin.Result, [][]graph.NodeID) {
	k := len(parents)
	w := len(cols) - k
	list := func(j, i int, row []graph.NodeID) []graph.NodeID {
		h := uint64(i)*31 + uint64(j)
		for p := parents[j]; p >= 0; p = parents[p] {
			h = h*1000003 + uint64(row[w+p])
		}
		if len(lists) == 0 {
			return nil
		}
		return lists[h%uint64(len(lists))]
	}
	rows := 0
	if w > 0 {
		rows = len(data) / w
	} else if len(lists) > 0 {
		rows = len(lists) / k
	}
	var model [][]graph.NodeID
	row := make([]graph.NodeID, len(cols))
	var enum func(i, j int)
	enum = func(i, j int) {
		if j == k {
			model = append(model, slices.Clone(row))
			return
		}
		for _, v := range list(j, i, row) {
			row[w+j] = v
			enum(i, j+1)
		}
	}
	for i := range rows {
		copy(row, data[i*w:(i+1)*w])
		enum(i, 0)
	}
	return rjoin.Nested(cols, data, rows, parents, list, len(model)), model
}
