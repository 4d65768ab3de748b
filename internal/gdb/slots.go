package gdb

import (
	"sync/atomic"
	"unsafe"
)

// A slotArray is one epoch's directory over the chunks of a partner table's
// slots (by rank in the bound label), each nil or an immutable list. A
// chunk is allocated on the first fill of one of its slots. A publish gives
// the successor a new directory sharing every chunk except those holding a
// slot the batch touched, which it copies without them, so a shared chunk
// holds only slots equal in both epochs and a reader of either may fill it
// for both. A chunk carries the charge of what it holds, so k epochs
// sharing it are charged once; an overflowing epoch forgets its own tables,
// never a shared chunk (DESIGN §3). chunkBits also sizes the decoded
// index's chunks (decoded.go), which are immutable and need none of this.
type slotArray[T any] struct {
	chunks []atomic.Pointer[chunk[T]]
}

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk[T any] struct {
	slots  [chunkSize]atomic.Pointer[T]
	filled atomic.Int64 // non-nil slots
	charge atomic.Int64
}

// newSlotArray returns an empty array of n slots.
func newSlotArray[T any](n int) slotArray[T] {
	return slotArray[T]{chunks: make([]atomic.Pointer[chunk[T]], (n+chunkMask)>>chunkBits)}
}

// load returns slot i's value, nil when empty.
func (a *slotArray[T]) load(i int) *T {
	if c := a.chunks[i>>chunkBits].Load(); c != nil {
		return c.slots[i&chunkMask].Load()
	}
	return nil
}

// replace swaps slot i from old to v, allocating its chunk if need be, and
// adds delta to the chunk's charge when it succeeds. It fails when the slot
// no longer holds old: another reader filled it first.
func (a *slotArray[T]) replace(i int, old, v *T, delta int64) bool {
	p := &a.chunks[i>>chunkBits]
	if p.Load() == nil {
		p.CompareAndSwap(nil, new(chunk[T])) // a loser uses the winner's chunk
	}
	c := p.Load()
	if !c.slots[i&chunkMask].CompareAndSwap(old, v) {
		return false
	}
	if old == nil {
		c.filled.Add(1)
	}
	if v == nil {
		c.filled.Add(-1)
	}
	c.charge.Add(delta)
	return true
}

// held returns the filled slots and the charge summed over the array's
// chunks.
func (a *slotArray[T]) held() (filled, charge int64) {
	for i := range a.chunks {
		if c := a.chunks[i].Load(); c != nil {
			filled += c.filled.Load()
			charge += c.charge.Load()
		}
	}
	return filled, charge
}

// The memory a chunk and a directory entry occupy.
const (
	chunkBytes = int(unsafe.Sizeof(chunk[struct{}]{}))
	dirEntry   = int(unsafe.Sizeof(uintptr(0)))
)

// successor returns the next epoch's directory: every chunk of a shared by
// pointer, except those holding one of the touched slots (ascending,
// duplicates allowed), which are copied without them. A copy is charged
// cost of each value it took, so it never counts a slot it did not copy.
// It also returns the bytes the new directory and the copies occupy, and
// how many filled slots the copies left out.
func (a *slotArray[T]) successor(touched []int, cost func(*T) int64) (next slotArray[T], copied, dropped int) {
	next = newSlotArray[T](len(a.chunks) << chunkBits)
	for i := range a.chunks {
		next.chunks[i].Store(a.chunks[i].Load())
	}
	copied = dirEntry * len(a.chunks)
	last := -1
	for _, t := range touched {
		ci := t >> chunkBits
		c := next.chunks[ci].Load()
		if c == nil {
			continue
		}
		if ci != last {
			last, c, copied = ci, c.copy(cost), copied+chunkBytes
			next.chunks[ci].Store(c)
		}
		if v := c.slots[t&chunkMask].Swap(nil); v != nil {
			c.filled.Add(-1)
			c.charge.Add(-cost(v))
			dropped++
		}
	}
	return next, copied, dropped
}

// copy returns a new chunk holding c's values, charged for them.
func (c *chunk[T]) copy(cost func(*T) int64) *chunk[T] {
	n := new(chunk[T])
	var filled, charge int64
	for s := range c.slots {
		if v := c.slots[s].Load(); v != nil {
			n.slots[s].Store(v)
			filled, charge = filled+1, charge+cost(v)
		}
	}
	n.filled.Store(filled)
	n.charge.Store(charge)
	return n
}
