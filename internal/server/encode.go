package server

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"fastmatch/internal/graph"
	"fastmatch/internal/rjoin"
)

// maxPooledResponse is the most an encode buffer grows to. A response
// larger than this is written out in pieces of this size, so a rare huge
// result neither reserves its whole body nor leaves an oversized buffer in
// the pool.
const maxPooledResponse = 32 << 20

// encoder formats one QueryResponse into a pooled buffer, straight from the
// executor's result. The result is fully resolved before the first byte, so
// after the 200 nothing can fail but the write itself.
type encoder struct {
	w   io.Writer
	buf []byte
	// max bounds the buffer: when a row would not fit under it, what is
	// buffered is written out and the buffer reused.
	max int
	// n counts the bytes handed to w; err is w's first error, after which
	// the response is abandoned.
	n   int64
	err error
	// head and tail hold the text of the current row before and after its
	// innermost expanded column, formatted once per run of that column's
	// list; each is rowRoom bytes, the formatter's overshoot included.
	head, tail []byte
}

var encoders = sync.Pool{New: func() any { return &encoder{max: maxPooledResponse} }}

// writeQueryResponse writes res as a 200 QueryResponse — exactly the bytes
// json.Encoder writes for it with the rows written out in pattern-node
// order — and returns the body's size. The rows array, all of a large
// response, is formatted from res.rows by table loads (putNodeID); the
// column permutation is an index vector applied while formatting.
func writeQueryResponse(w http.ResponseWriter, res *Result) (int64, error) {
	src, err := res.rows.Order(res.nodes)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return 0, err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	e := encoders.Get().(*encoder)
	e.w, e.n, e.err = w, 0, nil
	e.response(res, src)
	n, err := e.n, e.err
	e.w = nil
	encoders.Put(e)
	return n, err
}

// response encodes and writes the whole body.
func (e *encoder) response(res *Result, src []int) {
	r := res.rows
	// Node IDs average under 7 digits on the graphs this serves; one
	// reservation that is about right beats doubling through a large result.
	e.buf = slices.Grow(e.buf[:0], min(128+r.N*(8*len(src)+3), e.max))
	e.put(`{"cols":`)
	e.put(marshal(res.Cols))
	e.put(`,"rows":[`)
	e.rows(r, src)
	e.put(`],"row_count":`)
	e.put(strconv.Itoa(r.N))
	if res.Truncated {
		e.put(`,"truncated":true`)
	}
	e.put(`,"plan_cached":`)
	e.put(strconv.FormatBool(res.PlanCached))
	e.put(`,"elapsed_ms":`)
	e.put(marshal(float64(res.Elapsed.Microseconds()) / 1000))
	e.put("}\n")
	e.flush()
}

// rowRoom is the room rows reserves for a row of width cells: the widest
// row text — ten digits per cell, a comma before each cell and the
// brackets — and the 31 bytes past it that the 32-byte store of a
// factorised row's tail can write. Every fixed-width store of a row falls
// inside it, so a run of k rows needs k·rowRoom bytes at most.
func rowRoom(width int) int { return 11*width + 2 + 31 }

// rows appends r's first r.N rows as JSON arrays, comma-separated, with
// output column j taken from source column src[j]; prefix row i is
// r.Data[i*w:(i+1)*w]. Plain rows are written cell by cell with putNodeID.
// A factorised result is written a run at a time, as its Walker yields
// them: the run's cells but the innermost column are formatted once, as
// the text before and after it, and each row of the run is a 32-byte store
// of the head, the partner's digits and a 32-byte store of the tail (a
// copy finishes a head or tail longer than 32 bytes).
func (e *encoder) rows(r *rjoin.Result, src []int) {
	width := len(src)
	need := rowRoom(width)
	// b is the buffer up to its capacity and n the length written: the
	// fixed-width stores write past n, inside the room reserved for the row.
	b, n := e.buf[:cap(e.buf)], len(e.buf)
	first := true
	if r.K() == 0 {
		for i := 0; i < r.N; i++ {
			row := r.Data[i*width : (i+1)*width]
			if len(b)-n < need {
				if b, n = e.grow(b, n, need); b == nil {
					return
				}
			}
			if !first {
				b[n] = ','
				n++
			}
			first = false
			b[n] = '['
			n++
			for j, s := range src {
				if j > 0 {
					b[n] = ','
					n++
				}
				n = putNodeID(b, n, row[s])
			}
			b[n] = ']'
			n++
		}
		e.buf = b[:n]
		return
	}
	if cap(e.head) < need {
		e.head, e.tail = make([]byte, need), make([]byte, need)
	}
	left := r.N
	pos := slices.Index(src, width-1)
	wk := r.Walk()
	for left > 0 && wk.Next() {
		h := e.head[:cap(e.head)]
		h[0], h[1] = ',', '['
		hn := 2
		for _, s := range src[:pos] {
			hn = putNodeID(h, hn, wk.Cell(s))
			h[hn] = ','
			hn++
		}
		t := e.tail[:cap(e.tail)]
		tn := 0
		for _, s := range src[pos+1:] {
			t[tn] = ','
			tn = putNodeID(t, tn+1, wk.Cell(s))
		}
		t[tn] = ']'
		tn++
		head, tail := h[:hn], t[:tn]
		list := wk.Run()
		if len(list) > left {
			list = list[:left]
		}
		left -= len(list)
		if first {
			if len(b)-n < need {
				if b, n = e.grow(b, n, need); b == nil {
					return
				}
			}
			n += copy(b[n:], head[1:])
			n = putNodeID(b, n, list[0])
			n += copy(b[n:], tail)
			list, first = list[1:], false
		}
		for len(list) > 0 {
			if len(b)-n < need {
				if b, n = e.grow(b, n, need); b == nil {
					return
				}
			}
			run := list[:min((len(b)-n)/need, len(list))]
			list = list[len(run):]
			n = putRun(b, n, run, head, tail)
		}
	}
	e.buf = b[:n]
}

// putRun writes one row per partner in run at b[n:] — head, the
// partner's digits, tail — and returns the index after the last. Each row
// is a 32-byte store of head (a copy finishes one longer than that), the
// digits (putNodeID's two cases under 10⁸ inline, the third a call) and a
// 32-byte store of tail; head and tail must have 32 bytes of capacity. The
// stores write past their text, into bytes the next store or the buffer's
// length covers, and are unchecked: a row advances at most hn+10+tn bytes
// and, its tail holding at least the closing bracket, stores at most 31
// past its text, so the one slice check of the run's len(run)·(hn+10+tn)+31
// bytes bounds them all. (Built with -tags fgmcheck, each store is
// bounds-checked instead: see store_checked.go.)
func putRun(b []byte, n int, run []graph.NodeID, head, tail []byte) int {
	hn, tn := len(head), len(tail)
	_ = b[n : n+len(run)*(hn+10+tn)+31]
	p := unsafe.Pointer(unsafe.SliceData(b))
	h32, t32 := [32]byte(head[:32:32]), [32]byte(tail[:32:32])
	for _, v := range run {
		*(*[32]byte)(at(b, p, n, 32)) = h32
		if hn > 32 {
			copy(b[n+32:], head[32:])
		}
		n += hn
		switch u := uint32(v); {
		case u < 1e4:
			x := digits[u]
			*(*uint64)(at(b, p, n, 8)) = x
			n += int(x >> 56)
		case u < 1e8:
			x := digits[u/1e4]
			*(*uint64)(at(b, p, n, 8)) = x
			n += int(x >> 56)
			*(*uint32)(at(b, p, n, 4)) = padded[u%1e4]
			n += 4
		default:
			n = putNodeID(b, n, v)
		}
		*(*[32]byte)(at(b, p, n, 32)) = t32
		if tn > 32 {
			copy(b[n+32:], tail[32:])
		}
		n += tn
	}
	return n
}

// grow is room for rows, which writes into b — e.buf up to its capacity —
// with n bytes written: it makes room for need bytes after them and returns
// the new b and n, or a nil b once the response is abandoned.
func (e *encoder) grow(b []byte, n, need int) ([]byte, int) {
	e.buf = b[:n]
	if !e.room(need) {
		return nil, 0
	}
	return e.buf[:cap(e.buf)], len(e.buf)
}

// put appends s, making room for it first.
func (e *encoder) put(s string) {
	if e.room(len(s)) {
		e.buf = append(e.buf, s...)
	}
}

// room makes space for need more bytes without letting the buffer outgrow
// max: it doubles the buffer while that fits, then writes out what is
// buffered and starts over. It reports false once the response is abandoned.
func (e *encoder) room(need int) bool {
	if len(e.buf)+need > e.max && !e.flush() {
		return false
	}
	if cap(e.buf)-len(e.buf) < need {
		grow := max(cap(e.buf), need)
		if fits := e.max - len(e.buf); grow > fits {
			grow = max(fits, need)
		}
		e.buf = slices.Grow(e.buf, grow)
	}
	return e.err == nil
}

// flush writes out what is buffered and empties the buffer.
func (e *encoder) flush() bool {
	if e.err == nil && len(e.buf) > 0 {
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
	return e.err == nil
}

// marshal is encoding/json's rendering of a value that cannot fail to
// marshal (strings, finite floats).
func marshal(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// digits and padded are the decimal table putNodeID reads, built once:
// for u < 10⁴, digits[u] holds u's digits from its lowest byte up and their
// count in its top byte, and padded[u] holds u as four digits with leading
// zeros. 120 KB in all, so the entries a response uses stay in cache.
var (
	digits [1e4]uint64
	padded [1e4]uint32
)

func init() {
	for u := range digits {
		d := [4]byte{'0' + byte(u/1000), '0' + byte(u/100%10), '0' + byte(u/10%10), '0' + byte(u%10)}
		n := 1
		for x := u; x >= 10; x /= 10 {
			n++
		}
		var x [8]byte
		copy(x[:], d[4-n:])
		x[7] = byte(n)
		digits[u] = binary.LittleEndian.Uint64(x[:])
		padded[u] = binary.LittleEndian.Uint32(d[:])
	}
}

// putNodeID writes v, which must not be negative, in decimal at b[i:] and
// returns the index after it: one table load and one 8-byte store for the
// leading group of up to four digits, and one more load and store for the
// four or eight digits after it — at most three loads for an int32. The
// first store can reach 7 bytes past the digits; those bytes are left for
// the caller to overwrite, and b must have room for them.
func putNodeID(b []byte, i int, v graph.NodeID) int {
	u := uint32(v)
	switch {
	case u < 1e4:
		x := digits[u]
		binary.LittleEndian.PutUint64(b[i:], x)
		return i + int(x>>56)
	case u < 1e8:
		x := digits[u/1e4]
		binary.LittleEndian.PutUint64(b[i:], x)
		i += int(x >> 56)
		binary.LittleEndian.PutUint32(b[i:], padded[u%1e4])
		return i + 4
	default:
		x := digits[u/1e8]
		binary.LittleEndian.PutUint64(b[i:], x)
		i += int(x >> 56)
		binary.LittleEndian.PutUint64(b[i:], uint64(padded[u/1e4%1e4])|uint64(padded[u%1e4])<<32)
		return i + 8
	}
}
