package server

import (
	"container/list"
	"sync"

	"fastmatch/internal/optimizer"
)

// planCache is a bounded LRU of optimized plans keyed by "algorithm|
// canonical pattern". A pipeline plan is a pure function of the algorithm,
// the pattern and the Binding statistics it was costed with, and any join
// order answers correctly on any epoch, so entries outlive publishes: the
// server reuses one while the pinned snapshot's statistics equal the plan's
// own (Server.cachedPlan) and replaces it when they moved. Cached
// *optimizer.Plan values are immutable after optimization (the executor
// only reads them), so one plan is shared by any number of concurrent runs.
type planCache struct {
	mu    sync.Mutex
	ll    *list.List // of *planCacheEntry, front = most recently used
	items map[string]*list.Element
}

type planCacheEntry struct {
	key  string
	plan *optimizer.Plan
}

// planCacheSize bounds the plan cache in entries.
const planCacheSize = 256

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), items: make(map[string]*list.Element, planCacheSize)}
}

func (c *planCache) get(key string) (*optimizer.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planCacheEntry).plan, true
}

func (c *planCache) put(key string, plan *optimizer.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planCacheEntry).plan = plan
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: plan})
	if c.ll.Len() > planCacheSize {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*planCacheEntry).key)
	}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
