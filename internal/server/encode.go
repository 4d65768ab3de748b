package server

import (
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
	// rows, formatted once.
	head, tail []byte
}

var encoders = sync.Pool{New: func() any { return &encoder{max: maxPooledResponse} }}

// writeQueryResponse writes res as a 200 QueryResponse — exactly the bytes
// json.Encoder writes for it with the rows written out in pattern-node
// order — and returns the body's size. The rows array, all of a large
// response, is formatted with strconv from res.rows; the column permutation
// is an index vector applied while formatting.
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

// rows appends r's rows as JSON arrays, comma-separated, with output
// column j taken from source column src[j]. For a factorised result each
// prefix row's cells are formatted once, as the text before and after the
// expanded column, and every row it stands for is head + one number + tail.
func (e *encoder) rows(r *rjoin.Result, src []int) {
	width := len(src)
	rowMax := 12*width + 3 // a cell is at most "-2147483648" and a comma
	first := true
	if r.Exp == nil {
		for _, row := range r.Rows {
			if cap(e.buf)-len(e.buf) < rowMax && !e.room(rowMax) {
				return
			}
			buf := e.buf
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '[')
			for j, s := range src {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = appendNodeID(buf, row[s])
			}
			e.buf = append(buf, ']')
		}
		return
	}
	pos := slices.Index(src, width-1)
	for i, list := range r.Exp {
		if len(list) == 0 {
			continue
		}
		prefix := r.Rows[i]
		head := append(e.head[:0], ',', '[')
		for _, s := range src[:pos] {
			head = append(strconv.AppendInt(head, int64(prefix[s]), 10), ',')
		}
		tail := e.tail[:0]
		for _, s := range src[pos+1:] {
			tail = strconv.AppendInt(append(tail, ','), int64(prefix[s]), 10)
		}
		tail = append(tail, ']')
		e.head, e.tail = head, tail
		buf := e.buf
		for _, n := range list {
			if cap(buf)-len(buf) < rowMax {
				if e.buf = buf; !e.room(rowMax) {
					return
				}
				buf = e.buf
			}
			if first {
				buf, first = append(buf, head[1:]...), false
			} else {
				buf = append(buf, head...)
			}
			buf = appendNodeID(buf, n)
			buf = append(buf, tail...)
		}
		e.buf = buf
	}
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

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendNodeID is strconv.AppendInt(buf, int64(v), 10) for a node ID, which
// is never negative and has at most ten digits: the digits are written in
// place, two at a time, without strconv's scratch array and copy. On
// read_fastpath it is worth 7% of qps (EXPERIMENTS.md, "result shipping").
func appendNodeID(buf []byte, v graph.NodeID) []byte {
	if v < 0 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	u := uint32(v)
	n := 1
	switch {
	case u >= 1e9:
		n = 10
	case u >= 1e8:
		n = 9
	case u >= 1e7:
		n = 8
	case u >= 1e6:
		n = 7
	case u >= 1e5:
		n = 6
	case u >= 1e4:
		n = 5
	case u >= 1e3:
		n = 4
	case u >= 100:
		n = 3
	case u >= 10:
		n = 2
	}
	buf = append(buf, "0000000000"[:n]...)
	i := len(buf)
	for u >= 100 {
		q := u / 100
		r := 2 * (u - q*100)
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		buf[i-2], buf[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		buf[i-1] = byte('0' + u)
	}
	return buf
}
