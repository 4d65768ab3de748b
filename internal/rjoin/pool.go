package rjoin

import (
	"math/bits"
	"sync"

	"fastmatch/internal/graph"
)

// Operators draw their output and scratch buffers — a stored column's
// chunks and lengths, HPSJ's pairs and rows, FilterExtent's survivors, a
// written-out result, a fused Fetch's survivor list — from the query's
// Runtime, which takes them from package-level pools and remembers them.
// Runtime.Release hands them back once nothing reads the query's Results
// any more; a Runtime that is never released leaves them to the garbage
// collector, like any other allocation.
const (
	// minPooled is the capacity of the smallest class: a request for fewer
	// entries gets a buffer of this many.
	minPooled = 256
	// poolClasses is the number of classes: class k holds buffers of
	// minPooled<<k entries up to twice that, and the last ends at 1 Mi
	// entries. A larger buffer is allocated as asked and never kept, so a
	// rare huge result does not stay in the pool.
	poolClasses = 13
	maxPooled   = minPooled << (poolClasses - 1)
)

// classes is one element type's pools, by capacity class (see poolClasses).
// They hold *[]T: a slice header put in an interface would be allocated on
// every Put.
type classes[T any] [poolClasses]sync.Pool

var (
	nodePool classes[graph.NodeID]
	lenPool  classes[uint32]
	pairPool classes[uint64]
)

// class returns the class of a buffer of n entries: the largest k with
// minPooled<<k <= n, or 0 below minPooled.
func class(n int) int {
	if n <= minPooled {
		return 0
	}
	return bits.Len(uint(n)/minPooled) - 1
}

// take returns an empty buffer with room for n entries and records it in
// held; for no entries, nil. It reuses one of n's class if the first it
// finds is large enough — one that is not is dropped, so a class's buffers
// grow to what its queries ask — and otherwise allocates exactly n (at
// least minPooled): a Runtime that is never released allocates what the
// request needs, not the class above it.
func (c *classes[T]) take(held *[]*[]T, n int) []T {
	switch {
	case n == 0:
		return nil
	case n > maxPooled:
		return make([]T, 0, n)
	}
	k := class(n)
	p, _ := c[k].Get().(*[]T)
	if p == nil || cap(*p) < n {
		b := make([]T, 0, max(n, minPooled))
		p = &b
	}
	*held = append(*held, p)
	return (*p)[:0]
}

// grow returns s with room for n more entries, like slices.Grow, moving it
// to a buffer from take when it has not. The buffer s leaves stays held
// until the release.
func (c *classes[T]) grow(held *[]*[]T, s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(c.take(held, max(len(s)+n, 2*cap(s))), s...)
}

// release returns every buffer in held to its class, poisoned first under
// the fgmcheck build (see poison), and empties held.
func (c *classes[T]) release(held *[]*[]T) {
	for i, p := range *held {
		poison((*p)[:cap(*p)])
		c[class(cap(*p))].Put(p)
		(*held)[i] = nil
	}
	*held = (*held)[:0]
}

// Release returns every buffer the runtime's operators drew to the pools,
// for the next query to reuse. Every Result they returned — its rows, its
// stored columns, a Table written from it — is invalid afterwards, and so
// is every scratch list; the runtime itself stays ready for another query.
// Only a caller that has finished reading the results may call it: the
// server does, once a response is written. Other callers never release,
// and their Results stay valid for as long as they are referenced.
func (rt *Runtime) Release() {
	nodePool.release(&rt.nodes)
	lenPool.release(&rt.lens)
	pairPool.release(&rt.pairs)
}

// nodeBuf returns an empty node buffer with room for n entries, from the
// pool (see take).
func (rt *Runtime) nodeBuf(n int) []graph.NodeID { return nodePool.take(&rt.nodes, n) }
