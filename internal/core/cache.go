package core

import (
	"container/list"
	"sync"
)

// BlockCache is a shared, byte-bounded LRU cache of lazily encoded packet
// blocks. One cache serves many sessions: a fountain service hands the same
// BlockCache to every NewSessionCached call, so the total memory spent on
// repair packets across all resident files stays under one budget instead
// of each session materializing its full stretch-factor-n encoding.
//
// Only coded packets are charged against the budget (the source entries of
// a block alias the session's file buffer and cost nothing extra). The
// budget is a high-water mark for charged bytes: eviction runs at insert
// time, and the one block being inserted is always retained even if it
// alone exceeds the cap.
//
// All methods are safe for concurrent use. Racing fills of the same block
// may encode it twice; the loser's work is discarded (the schedules are
// deterministic, so both copies are identical).
type BlockCache struct {
	mu           sync.Mutex
	cap          int64
	used         int64
	peak         int64
	lookups      uint64 // combined get2 probes; invariant: hits + misses == lookups
	hits         uint64
	misses       uint64
	evictions    uint64     // entries removed to restore the budget (not Drop)
	evictedBytes uint64     // charged bytes reclaimed by those evictions
	ll           *list.List // front = most recently used
	entries      map[cacheKey]*list.Element
}

type cacheKey struct {
	owner *Session
	block int
}

type cacheEntry struct {
	key   cacheKey
	pkts  [][]byte
	bytes int64 // charged (coded-packet) bytes
}

// NewBlockCache creates a cache with the given byte budget. capBytes <= 0
// means "cache nothing beyond the block currently in use" (every insert
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

// Stats returns (hits, misses) of block lookups.
func (c *BlockCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is a consistent snapshot of the cache's accounting, read under
// one lock acquisition so the invariant Hits+Misses == Lookups holds in
// every snapshot even while other goroutines probe concurrently.
type CacheStats struct {
	Lookups      uint64 // combined get2 probes (one per Payload cache path)
	Hits         uint64
	Misses       uint64
	Evictions    uint64 // entries evicted to restore the byte budget
	EvictedBytes uint64 // charged bytes reclaimed by those evictions
	Used         int64  // currently charged bytes
	Peak         int64  // high-water mark of charged bytes
	Cap          int64  // configured budget
	Entries      int    // resident blocks
}

// StatsSnapshot returns the full accounting picture. Each lookup counts
// exactly one hit or one miss — a combined primary/secondary probe is one
// lookup, never two — so Hits+Misses == Lookups always.
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

// get2 returns the cached run under the primary key, else the secondary
// key (fromPrimary reports which), else nil — counting exactly one hit or
// miss for the combined probe.
func (c *BlockCache) get2(owner *Session, primary, secondary int) (pkts [][]byte, fromPrimary bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	if el, ok := c.entries[cacheKey{owner, primary}]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).pkts, true
	}
	if el, ok := c.entries[cacheKey{owner, secondary}]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).pkts, false
	}
	c.misses++
	return nil, false
}

// put inserts a filled block and evicts least-recently-used blocks until the
// budget holds (never evicting the block just inserted). If a racing fill
// already inserted the same key, the existing entry wins and is returned.
func (c *BlockCache) put(owner *Session, block int, pkts [][]byte, bytes int64) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{owner, block}
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).pkts
	}
	el := c.ll.PushFront(&cacheEntry{key: key, pkts: pkts, bytes: bytes})
	c.entries[key] = el
	c.used += bytes
	if c.used > c.peak {
		c.peak = c.used
	}
	for c.used > c.cap && c.ll.Len() > 1 {
		back := c.ll.Back()
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.used -= ent.bytes
		c.evictions++
		c.evictedBytes += uint64(ent.bytes)
	}
	return pkts
}

// Drop removes every block owned by the session (used when a service
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
			c.used -= ent.bytes
		}
		el = next
	}
}
