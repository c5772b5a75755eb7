package serve

// The result table: an LRU of finished jobs keyed by the scenario's
// canonical key. Determinism is what makes this sound — a stored body
// is identical to recomputation (pinned by
// TestServerColdWarmCacheIdentical), and so is a stored error — so
// eviction and capacity tuning are pure performance knobs, never
// correctness ones.

import "container/list"

// lruCache is an LRU of finished jobs bounded by entry count and,
// optionally, by summed body bytes. It has no lock of its own: the
// Server guards it with Server.mu together with the in-flight map, so
// a key is always in exactly one of the two, or in neither.
type lruCache struct {
	maxEntries int
	maxBytes   int64 // 0 = unbounded

	ll    *list.List // of *job; front = most recently used
	index map[string]*list.Element
	bytes int64

	hits, misses int64
}

func newCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      make(map[string]*list.Element),
	}
}

// get returns the finished job for key, marking it most recently used
// and counting the lookup as a hit or a miss.
func (c *lruCache) get(key string) (*job, bool) {
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*job), true
}

// peek returns the finished job for key without touching recency or
// the hit counters (job polling).
func (c *lruCache) peek(key string) (*job, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*job), true
}

// put stores the finished job j, whose key the table does not hold
// yet, evicting least-recently-used entries until both bounds hold. A
// body larger than maxBytes is not stored.
func (c *lruCache) put(j *job) {
	if c.maxBytes > 0 && int64(len(j.body)) > c.maxBytes {
		return
	}
	c.index[j.key] = c.ll.PushFront(j)
	c.bytes += int64(len(j.body))
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		old := c.ll.Remove(c.ll.Back()).(*job)
		delete(c.index, old.key)
		c.bytes -= int64(len(old.body))
	}
}

// cacheStats is a point-in-time snapshot for /v1/stats.
type cacheStats struct {
	Entries int     `json:"entries"`
	Bytes   int64   `json:"bytes"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

func (c *lruCache) snapshot() cacheStats {
	st := cacheStats{
		Entries: c.ll.Len(),
		Bytes:   c.bytes,
		Hits:    c.hits,
		Misses:  c.misses,
	}
	if total := c.hits + c.misses; total > 0 {
		st.HitRate = float64(c.hits) / float64(total)
	}
	return st
}
