package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strconv"
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
	r := &rjoin.Result{Cols: cols, Exp: [][]graph.NodeID{}}
	for i, n := range lens {
		prefix := make([]graph.NodeID, len(cols)-1)
		for j := range prefix {
			prefix[j] = graph.NodeID((i*31 + j) * (j*1009 + 1))
		}
		if i == 1 {
			for j := range prefix {
				prefix[j] = math.MaxInt32 - graph.NodeID(j)
			}
		}
		list := make([]graph.NodeID, n)
		for k := range list {
			list[k] = graph.NodeID(k * (i + 1))
		}
		if n > 1 {
			list[n-1] = math.MaxInt32
		}
		r.Data = append(r.Data, prefix...)
		r.Exp = append(r.Exp, list)
		r.N += n
	}
	return r
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
	names := []string{"A", "B", "C", "D"}
	fact := func(cols []int, lens ...int) *Result {
		return &Result{Cols: names[:len(cols)], rows: factorisedResult(cols, lens...), nodes: identityNodes(len(cols))}
	}
	plain := func(cols []int, n int) *Result {
		return &Result{Cols: names[:len(cols)], rows: plainResult(cols, n), nodes: identityNodes(len(cols))}
	}
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
	}
	for name, cols := range map[string][]int{
		"digit boundaries first":  {1, 2, 3, 0},
		"digit boundaries middle": {0, 3, 2, 1},
		"digit boundaries last":   {1, 0, 3, 2},
		"digit boundaries pair":   {1, 0},
	} {
		cases[name] = &Result{Cols: names[:len(cols)], rows: digitBoundaryResult(cols), nodes: identityNodes(len(cols))}
	}
	// Rows as wide as rowRoom allows — every cell ten digits, the expanded
	// column last so the tail is "]" — whose tail stores reach the end of
	// the reserved room.
	widest := &rjoin.Result{Cols: []int{0, 1}, Exp: [][]graph.NodeID{}}
	for i := range 20 {
		list := make([]graph.NodeID, 300)
		for k := range list {
			list[k] = graph.NodeID(1e9 + i*1000 + k)
		}
		widest.Data = append(widest.Data, math.MaxInt32-graph.NodeID(i))
		widest.Exp = append(widest.Exp, list)
		widest.N += len(list)
	}
	cases["widest rows"] = &Result{Cols: names[:2], rows: widest, nodes: identityNodes(2)}
	for i, list := range cases["many short blocks"].rows.Exp {
		cases["many short blocks"].rows.Exp[i] = append(list, graph.NodeID(i), graph.NodeID(i+1))
		cases["many short blocks"].rows.N += 2
	}
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
// math.MaxInt32. At width 4 a head or tail of three cells is longer than
// the 16 bytes one store writes.
func digitBoundaryResult(cols []int) *rjoin.Result {
	ids := []graph.NodeID{0, 9, 10, 9999, 10_000, 99_999_999, 100_000_000, 999_999_999, 1_000_000_000, math.MaxInt32}
	r := &rjoin.Result{Cols: cols, Exp: [][]graph.NodeID{}}
	for i := range ids {
		prefix := make([]graph.NodeID, len(cols)-1)
		for j := range prefix {
			prefix[j] = ids[(i+j)%len(ids)]
		}
		list := ids[i%3:]
		r.Data = append(r.Data, prefix...)
		r.Exp = append(r.Exp, list)
		r.N += len(list)
	}
	return r
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
// order, plain or factorised with lists of any length including 0, IDs of
// every digit count — the body is json.Marshal's plus a newline, whether
// it leaves in one write or through a buffer smaller than a few rows.
func FuzzEncodeResult(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x83, 2, 1, 3, 9, 0xff, 0xff, 0xff, 0x7f, 0, 1, 0, 0, 0, 4, 8, 7, 6, 5})
	f.Add([]byte{0x82, 0, 1, 5, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 1, 1, 2, 3, 4})
	f.Add([]byte{0x03, 1, 0, 2, 7, 1, 2, 3, 4, 9, 4, 3, 2, 1, 3, 0, 0, 0, 0})
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
		shape := next()
		width, factorised := 1+int(shape%4), shape&0x80 != 0
		cols := identityNodes(width)
		for i := width - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			cols[i], cols[j] = cols[j], cols[i]
		}
		r, prefixWidth := &rjoin.Result{Cols: cols}, width
		if factorised {
			r.Exp, prefixWidth = [][]graph.NodeID{}, width-1
		}
		for rows := 0; len(data) > 0 && rows < 64; rows++ {
			n := 1
			if factorised {
				n = int(next() % 6)
			}
			row := make([]graph.NodeID, prefixWidth)
			for j := range row {
				row[j] = id()
			}
			r.Data = append(r.Data, row...)
			if factorised {
				list := make([]graph.NodeID, n)
				for k := range list {
					list[k] = id()
				}
				slices.Sort(list)
				r.Exp = append(r.Exp, list)
			}
			r.N += n
		}
		res := &Result{Cols: []string{"A", "B", "C", "D"}[:width], rows: r, nodes: identityNodes(width)}
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
// at every offset across two rows' reserve; a store past the reserve would
// panic, and the rows must be those json.Marshal writes.
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
		backing := make([]byte, 2*rowRoom(len(src)))
		for c := range backing {
			e := &encoder{w: io.Discard, max: maxPooledResponse, buf: backing[:0:c]}
			e.rows(res.rows, src)
			if !bytes.Equal(e.buf, rows) {
				t.Fatalf("%s: rows from a %d-byte buffer differ from json.Marshal's\n got %.200s\nwant %.200s", name, c, e.buf, rows)
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

// TestEncodeAfterEpochRetired: a query's result holds the partner lists it
// loaded, not the epoch. Take a factorised result (its epoch is released
// when run returns), publish insert and delete batches that touch the
// partner tables it read — the successor's tables restart and the old epoch
// retires — and only then encode: the bytes are those encoded before the
// writes. So for a plain last Fetch, whose lists are the partner table's
// own, and for a fused one (the triangle's Fetch absorbs its closing
// Selection), whose lists are intersections the result owns.
func TestEncodeAfterEpochRetired(t *testing.T) {
	for _, tc := range []struct {
		name, query string
		fused       bool
	}{
		{"shared lists", "A->B; B->C", false},
		{"intersected lists", "A->B; B->C; A->C", true},
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
			for _, algo := range []exec.Algorithm{exec.DP, exec.DPS} {
				fusedBefore := s.Stats().FusedFilters
				r, err := s.run(ctx, pattern.MustParse(tc.query), algo, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if r.rows.Exp != nil && r.rows.N > 0 && (s.Stats().FusedFilters > fusedBefore) == tc.fused {
					res = r
					break
				}
			}
			if res == nil {
				t.Fatalf("no planner ended %s on a Fetch (fused=%v): nothing factorised to test", tc.query, tc.fused)
			}
			encode := func() []byte {
				rec := httptest.NewRecorder()
				if _, err := writeQueryResponse(rec, res); err != nil {
					t.Fatal(err)
				}
				return rec.Body.Bytes()
			}
			before := encode()

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
			if after := encode(); !bytes.Equal(after, before) {
				t.Fatalf("body changed after its epoch retired (%d vs %d bytes)", len(after), len(before))
			}
		})
	}
}

// TestServedBodyAndEncodeStats: over HTTP, every planner's answer is the
// in-process answer (the same Result, written out instead of encoded), and
// /stats response_bytes is exactly the bytes of the 200 bodies — an error
// response adds nothing — with encode_ms moving too.
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
}

// servedResult is shaped like site->name on the 100k-node XMark graph the
// served benchmark reads: 95 prefix rows, each with 540 ascending partners
// about 185 apart across the whole node range.
func servedResult() *rjoin.Result {
	rnd := rand.New(rand.NewSource(1))
	r := &rjoin.Result{Cols: []int{0, 1}}
	for i := range 95 {
		list := make([]graph.NodeID, 540)
		for k := range list {
			list[k] = graph.NodeID(k*185 + rnd.Intn(185))
		}
		r.Data = append(r.Data, graph.NodeID(i*1052+rnd.Intn(1052)))
		r.Exp = append(r.Exp, list)
		r.N += len(list)
	}
	return r
}

// BenchmarkEncodeResult times the row encoder into a warm buffer: a
// site->name-shaped factorised result with served IDs, the same shape with
// small consecutive IDs and math.MaxInt32, and a 4-column plain result of
// the same size. It fails if encoding allocates.
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
