package gdb

import (
	"sync/atomic"

	"fastmatch/internal/graph"
)

// codeCache is the working cache of decoded graph codes (the paper's
// getCenters cache, Section 3.3): one atomic slot per node ID, so a cached
// code costs one load and no lock, however many queries share it. It holds
// at most max codes; on overflow an arbitrary entry — the next filled slot
// after a shared sweep hand — is dropped. A disabled cache has no slots.
type codeCache struct {
	slots []atomic.Pointer[codes]
	max   int64
	n     atomic.Int64  // slots filled, plus puts between reserving and storing
	hand  atomic.Uint32 // where the next eviction sweep starts
}

func newCodeCache(nodes, entries int) *codeCache {
	if entries < 0 {
		return &codeCache{}
	}
	return &codeCache{slots: make([]atomic.Pointer[codes], nodes), max: int64(entries)}
}

func (c *codeCache) get(x graph.NodeID) *codes {
	if uint(x) >= uint(len(c.slots)) {
		return nil
	}
	return c.slots[x].Load()
}

// put caches x's codes. It reserves its place in the count before storing
// and evicts first when that overflows, so the cache never holds more than
// max codes, not even between two concurrent puts.
func (c *codeCache) put(x graph.NodeID, v *codes) {
	if uint(x) >= uint(len(c.slots)) {
		return
	}
	if c.n.Add(1) > c.max && !c.evict() {
		c.n.Add(-1) // every other entry is still in flight: do not cache
		return
	}
	if !c.slots[x].CompareAndSwap(nil, v) {
		c.n.Add(-1) // a concurrent reader cached x first
	}
}

// evict drops one cached entry, looking at each slot at most once.
func (c *codeCache) evict() bool {
	for range c.slots {
		slot := &c.slots[int(c.hand.Add(1))%len(c.slots)]
		if p := slot.Load(); p != nil && slot.CompareAndSwap(p, nil) {
			c.n.Add(-1)
			return true
		}
	}
	return false
}

// len returns the number of cached entries.
func (c *codeCache) len() int { return int(c.n.Load()) }

func (c *codeCache) clear() {
	for i := range c.slots {
		if c.slots[i].Swap(nil) != nil {
			c.n.Add(-1)
		}
	}
}

// cloneWithout returns a new cache holding every entry of c except the
// dropped nodes — the warm start for the next epoch's cache, minus the
// nodes a write batch touched. The codes themselves are shared.
func (c *codeCache) cloneWithout(drop map[graph.NodeID]struct{}) *codeCache {
	n := &codeCache{max: c.max}
	if c.slots == nil {
		return n
	}
	n.slots = make([]atomic.Pointer[codes], len(c.slots))
	held := int64(0)
	for i := range c.slots {
		if p := c.slots[i].Load(); p != nil {
			n.slots[i].Store(p)
			held++
		}
	}
	for x := range drop {
		if n.slots[x].Swap(nil) != nil {
			held--
		}
	}
	n.n.Store(held)
	return n
}
