package main

// A bounded LRU result cache with singleflight. Both live behind one lock:
// the cache maps request keys to finished responses, the call table maps
// keys to in-flight computations so concurrent identical queries share one
// execution instead of stampeding the index. Only 200s are cached — errors
// and shed responses must be retried, not replayed.

import (
	"container/list"
	"sync"

	"mce/internal/telemetry"
)

type resultCache struct {
	met *telemetry.Engine
	max int // entries; 0 disables caching (singleflight stays on)

	mu    sync.Mutex
	gen   uint64     // bumped by purge; stale computations are not cached
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	calls map[string]*call
}

type cacheEntry struct {
	key string
	res result
}

type call struct {
	done chan struct{}
	res  result
}

func newResultCache(max int, met *telemetry.Engine) *resultCache {
	if max < 0 {
		max = 0
	}
	return &resultCache{
		met:   met,
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		calls: make(map[string]*call),
	}
}

// get returns the cached response for key, marking it most recently used.
func (c *resultCache) get(key string) (result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return result{}, false
	}
	c.ll.MoveToFront(el)
	c.met.Inc(telemetry.CacheHits)
	return el.Value.(*cacheEntry).res, true
}

// do computes the response for key, collapsing concurrent callers onto one
// execution. The winner runs fn and stores a 200 into the cache; everyone
// else blocks on the winner's completion and shares its result.
func (c *resultCache) do(key string, fn func() result) result {
	c.mu.Lock()
	// A racing caller may have finished while we waited for admission.
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.met.Inc(telemetry.CacheHits)
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.met.Inc(telemetry.SingleflightShared)
		<-cl.done
		return cl.res
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	gen := c.gen
	c.mu.Unlock()

	c.met.Inc(telemetry.CacheMisses)
	cl.res = fn()

	c.mu.Lock()
	delete(c.calls, key)
	if cl.res.status == 200 && c.max > 0 && gen == c.gen {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: cl.res})
		for c.ll.Len() > c.max {
			last := c.ll.Back()
			c.ll.Remove(last)
			delete(c.items, last.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.res
}

// purge empties the cache. Called when a new index is swapped in so no
// response computed against the old one survives the swap. In-flight calls
// are left to finish; their results are not admitted into the cache.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}
