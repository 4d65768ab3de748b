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
	cap   int
	ll    *list.List // of *planCacheEntry, front = most recently used
	items map[string]*list.Element
}

type planCacheEntry struct {
	key  string
	plan *optimizer.Plan
}

// newPlanCache returns a cache bounded to capacity entries; capacity <= 0
// disables caching (every get misses). Note the distinction from
// Config.PlanCacheSize, where 0 means "use the default size" — only an
// explicitly negative Config value reaches here as disabled.
func newPlanCache(capacity int) *planCache {
	c := &planCache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.items = make(map[string]*list.Element, capacity)
	}
	return c
}

func (c *planCache) get(key string) (*optimizer.Plan, bool) {
	if c.cap <= 0 {
		return nil, false
	}
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
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planCacheEntry).plan = plan
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: plan})
	if c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*planCacheEntry).key)
	}
}

func (c *planCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
