package core

import (
	"container/list"
	"sync"
)

// BlockCache is a shared, byte-bounded LRU cache of lazily encoded packets.
// One cache serves many sessions: a fountain service hands the same
// BlockCache to every NewSessionCached call, so the total memory spent on
// coded packets across all resident files stays under one budget instead
// of each session materializing its full stretch-factor-n encoding.
//
// Only coded packets are ever looked up or charged (source packets alias
// the session's file buffer and never reach the cache). The budget is a
// high-water mark for charged bytes: eviction runs at insert time, and the
// one packet being inserted is always retained even if it alone exceeds
// the cap.
//
// All methods are safe for concurrent use. Racing misses on the same packet
// may encode it twice; the loser's work is discarded (encoding is
// deterministic, so both copies are identical).
type BlockCache struct {
	mu           sync.Mutex
	cap          int64
	used         int64
	peak         int64
	lookups      uint64 // invariant: hits + misses == lookups
	hits         uint64
	misses       uint64
	evictions    uint64     // entries removed to restore the budget (not Drop)
	evictedBytes uint64     // charged bytes reclaimed by those evictions
	ll           *list.List // front = most recently used
	entries      map[cacheKey]*list.Element
}

type cacheKey struct {
	owner *Session
	idx   int
}

type cacheEntry struct {
	key cacheKey
	pkt []byte // charged at its length
}

// NewBlockCache creates a cache with the given byte budget. capBytes <= 0
// means "cache nothing beyond the packet currently in use" (every insert
// immediately evicts everything else) — still correct, maximally frugal.
func NewBlockCache(capBytes int64) *BlockCache {
	return &BlockCache{cap: capBytes, ll: list.New(), entries: make(map[cacheKey]*list.Element)}
}

// Cap returns the configured byte budget.
func (c *BlockCache) Cap() int64 { return c.cap }

// Used returns the currently charged bytes.
func (c *BlockCache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Peak returns the high-water mark of charged bytes over the cache's life.
func (c *BlockCache) Peak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// CacheStats is a consistent snapshot of the cache's accounting, read under
// one lock acquisition so the invariant Hits+Misses == Lookups holds in
// every snapshot even while other goroutines probe concurrently.
type CacheStats struct {
	Lookups      uint64 // one per coded-packet Payload of a cached session
	Hits         uint64
	Misses       uint64
	Evictions    uint64 // entries evicted to restore the byte budget
	EvictedBytes uint64 // charged bytes reclaimed by those evictions
	Used         int64  // currently charged bytes
	Peak         int64  // high-water mark of charged bytes
	Cap          int64  // configured budget
	Entries      int    // resident packets
}

// StatsSnapshot returns the full accounting picture. Each lookup counts
// exactly one hit or one miss, so Hits+Misses == Lookups always.
func (c *BlockCache) StatsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Lookups:      c.lookups,
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		EvictedBytes: c.evictedBytes,
		Used:         c.used,
		Peak:         c.peak,
		Cap:          c.cap,
		Entries:      c.ll.Len(),
	}
}

// get returns the session's cached coded packet idx, or nil.
func (c *BlockCache) get(owner *Session, idx int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	if el, ok := c.entries[cacheKey{owner, idx}]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).pkt
	}
	c.misses++
	return nil
}

// put inserts an encoded packet and evicts least-recently-used ones until
// the budget holds (never evicting the packet just inserted). If a racing
// miss already inserted the same key, the existing entry wins and is
// returned.
func (c *BlockCache) put(owner *Session, idx int, pkt []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{owner, idx}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).pkt
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, pkt: pkt})
	c.used += int64(len(pkt))
	if c.used > c.peak {
		c.peak = c.used
	}
	for c.used > c.cap && c.ll.Len() > 1 {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.used -= int64(len(ent.pkt))
		c.evictions++
		c.evictedBytes += uint64(len(ent.pkt))
	}
	return pkt
}

// Drop removes every packet owned by the session (used when a service
// unregisters a session).
func (c *BlockCache) Drop(owner *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.owner == owner {
			c.ll.Remove(el)
			delete(c.entries, ent.key)
			c.used -= int64(len(ent.pkt))
		}
		el = next
	}
}
