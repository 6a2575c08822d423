package serve

import (
	"container/list"
	"io"
	"sync"
)

// Cache is an LRU cache of rendered responses, keyed by a normalized query
// string. A hit returns the exact bytes the first execution produced, so
// repeated queries get byte-identical responses. Invalidation is the
// caller's key: a node's stored relations are immutable per epoch and the
// router's view of the fleet per table epoch, so both embed the epoch in
// their keys and entries of a retired view age out of the LRU. A nil
// *Cache is the disabled cache: it misses, stores nothing and reports no
// stats.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64
}

type cacheEntry struct {
	key     string
	payload []byte
}

// NewCache returns a cache bounded to capacity entries, or nil (caching
// disabled) when capacity is not positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached payload for key, counting a hit or miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// Put stores payload under key, evicting the least recently used entry
// when over capacity. The payload must not be mutated afterwards.
func (c *Cache) Put(key string, payload []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// CacheStats is the /stats cache block.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Evicted  int64   `json:"evicted"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	HitRate  float64 `json:"hit_rate"`
}

// Stats snapshots the counters; nil for the disabled cache, which /stats
// omits.
func (c *Cache) Stats() *CacheStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &CacheStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted,
		Entries: c.ll.Len(), Capacity: c.cap,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// WriteMetrics renders the cache's four /metrics families under prefix
// (pbiserve, pbirouter), their HELP naming the cache as what. The families
// are present, at zero, when caching is disabled.
func (c *Cache) WriteMetrics(w io.Writer, prefix, what string) {
	s := c.Stats()
	if s == nil {
		s = &CacheStats{}
	}
	Metric(w, prefix+"_cache_hits_total", what+" hits.", "counter", s.Hits)
	Metric(w, prefix+"_cache_misses_total", what+" misses.", "counter", s.Misses)
	Metric(w, prefix+"_cache_evicted_total", what+" LRU evictions.", "counter", s.Evicted)
	Metric(w, prefix+"_cache_entries", what+" resident entries.", "gauge", s.Entries)
}
