package engine

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// cacheKey content-addresses one analysis: the SHA-256 of the engine's
// fingerprint (caller options + limits + pass names) and the source
// text.
type cacheKey [sha256.Size]byte

// key hashes one source under this engine's fingerprint.
func (e *Engine) key(source string) cacheKey {
	h := sha256.New()
	h.Write([]byte(e.fp))
	h.Write([]byte{0})
	h.Write([]byte(source))
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// cache is a concurrency-safe LRU of successful analysis results,
// content-addressed by source hash + options fingerprint. Failed runs
// are never cached (a limit hit under one budget is not a fact about
// the source). States handed out on a hit are shared — they are
// immutable after analysis, so sharing is safe; callers that mutate
// artifacts (e.g. applying transformations to the SSA) should analyze
// without a cache.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key cacheKey
	st  *State
}

// newCache returns an LRU holding up to capacity results; capacity <= 0
// returns nil (no caching), which every method tolerates.
func newCache(capacity int) *cache {
	if capacity <= 0 {
		return nil
	}
	return &cache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached state for key, refreshing its recency, or nil.
func (c *cache) get(key cacheKey) *State {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).st
}

// put inserts a result, evicting from the cold end past capacity, and
// reports how many entries were evicted.
func (c *cache) put(key cacheKey, st *State) (evicted int64) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.st.art != nil && st.art == nil {
			// A live result upgrades a decoded disk placeholder: callers
			// that need the object graphs (the optimizer) bypass decoded
			// entries, and without the swap they would re-run the
			// pipeline on every request for this source.
			ent.st = st
		}
		// Otherwise a concurrent worker won the race to analyze the same
		// source; keep the incumbent so later hits stay pointer-stable.
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, st: st})
	for len(c.entries) > c.cap {
		cold := c.order.Back()
		c.order.Remove(cold)
		delete(c.entries, cold.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}
