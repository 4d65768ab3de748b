package server

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

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
	// head and tail hold the current prefix row's share of each of its
	// rows, formatted once; each is rowRoom bytes, the formatter's
	// overshoot included.
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

// rowRoom is the room rows reserves before writing a row of width cells:
// the widest row text — ten digits per cell, a comma before each cell and
// the brackets — and the 15 bytes past it that the 16-byte store of a
// factorised row's tail can write. Every fixed-width store of a row falls
// inside it.
func rowRoom(width int) int { return 11*width + 2 + 15 }

// rows appends r's rows as JSON arrays, comma-separated, with output
// column j taken from source column src[j]; prefix row i is
// r.Data[i*w:(i+1)*w]. Every cell is written by
// putNodeID. For a factorised result each prefix row's cells are formatted
// once, as the text before and after the expanded column, and every row it
// stands for is a 16-byte store of the head, one number and a 16-byte store
// of the tail (a copy finishes a head or tail longer than 16 bytes).
func (e *encoder) rows(r *rjoin.Result, src []int) {
	width := len(src)
	need := rowRoom(width)
	// b is the buffer up to its capacity and n the length written: the
	// fixed-width stores write past n, inside the room reserved for the row.
	b, n := e.buf[:cap(e.buf)], len(e.buf)
	first := true
	if r.Exp == nil {
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
	pos := slices.Index(src, width-1)
	for i, list := range r.Exp {
		if len(list) == 0 {
			continue
		}
		prefix := r.Row(i)
		h := e.head[:cap(e.head)]
		h[0], h[1] = ',', '['
		hn := 2
		for _, s := range src[:pos] {
			hn = putNodeID(h, hn, prefix[s])
			h[hn] = ','
			hn++
		}
		t := e.tail[:cap(e.tail)]
		tn := 0
		for _, s := range src[pos+1:] {
			t[tn] = ','
			tn = putNodeID(t, tn+1, prefix[s])
		}
		t[tn] = ']'
		tn++
		head, tail := h[:hn], t[:tn]
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
		h16, t16 := [16]byte(h), [16]byte(t)
		for _, v := range list {
			if len(b)-n < need {
				if b, n = e.grow(b, n, need); b == nil {
					return
				}
			}
			*(*[16]byte)(b[n:]) = h16
			if hn > 16 {
				copy(b[n+16:], head[16:])
			}
			n = putNodeID(b, n+hn, v)
			*(*[16]byte)(b[n:]) = t16
			if tn > 16 {
				copy(b[n+16:], tail[16:])
			}
			n += tn
		}
	}
	e.buf = b[:n]
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
