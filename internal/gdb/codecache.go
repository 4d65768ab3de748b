package gdb

import (
	"sync/atomic"

	"fastmatch/internal/graph"
)

// codeCache is the working cache of decoded graph codes (the paper's
// getCenters cache, Section 3.3): one slot per node ID in a copy-on-write
// slot array, so a cached code costs two loads and no lock, however many
// queries share it. It holds at most max codes; on overflow an arbitrary
// entry — the next filled slot after a shared sweep hand — is dropped. A
// dropped code is a miss in every epoch that shares its chunk, and the
// chunk's count stays exact.
type codeCache struct {
	slots slotArray[codes]
	max   int64
	n     atomic.Int64  // slots filled, plus puts between reserving and storing
	hand  atomic.Uint32 // where the next eviction sweep starts
	size  int           // node IDs
}

func newCodeCache(nodes, entries int) *codeCache {
	return &codeCache{slots: newSlotArray[codes](nodes), max: int64(entries), size: nodes}
}

func (c *codeCache) get(x graph.NodeID) *codes {
	if uint(x) >= uint(c.size) {
		return nil
	}
	return c.slots.load(int(x))
}

// put caches x's codes. It reserves its place in the count before storing
// and evicts first when that overflows, so the cache never holds more than
// max codes, not even between two concurrent puts.
func (c *codeCache) put(x graph.NodeID, v *codes) {
	if uint(x) >= uint(c.size) {
		return
	}
	if c.n.Add(1) > c.max && !c.evict() {
		c.n.Add(-1) // every other entry is still in flight: do not cache
		return
	}
	if !c.slots.replace(int(x), nil, v, 1) {
		c.n.Add(-1) // a concurrent reader cached x first
	}
}

// evict drops one cached entry, looking at each slot at most once.
func (c *codeCache) evict() bool {
	for range c.size {
		i := int(c.hand.Add(1)) % c.size
		if p := c.slots.load(i); p != nil && c.slots.replace(i, p, nil, -1) {
			c.n.Add(-1)
			return true
		}
	}
	return false
}

// len returns the number of cached entries.
func (c *codeCache) len() int { return int(c.n.Load()) }

// clear empties the cache's directory.
func (c *codeCache) clear() {
	c.slots.reset()
	c.n.Store(0)
}

// successor returns the next epoch's cache: c's slots minus those of the
// nodes whose codes the batch changed (ascending), sharing every chunk that
// holds none of them. It also returns the bytes copied.
func (c *codeCache) successor(touched []int) (*codeCache, int) {
	slots, copied, _ := c.slots.successor(touched, func(*codes) int64 { return 1 })
	n := &codeCache{slots: slots, max: c.max, size: c.size}
	filled, _ := slots.held()
	n.n.Store(filled)
	return n, copied
}
