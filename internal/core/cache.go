package core

import (
	"bytes"
	"sync/atomic"
)

// BlockCache is the byte budget that lazily encoded sessions share. A
// fountain service hands the same BlockCache to every NewSessionCached
// call, so the coded rows resident across all its files stay under one
// budget instead of each session materializing its full stretch-factor-n
// encoding.
//
// The rows themselves live with their session (rowTable); what is shared
// is only the charge for them and the hit/miss ledger. A carousel is a
// cyclic scan of its rows, the access pattern on which evicting the least
// recently used row scores no hit at all, so nothing is ever evicted: a
// coded row is kept on its first touch if the budget has room and encoded
// per emission if it does not, and the hit ratio under pressure is the
// resident fraction. Charged bytes never exceed the budget. Only coded rows
// are looked up or charged — a session's columns (source rows, which alias
// its file buffer, and a Tornado cascade's values) are served beside it.
//
// All methods are safe for concurrent use and take no lock.
type BlockCache struct {
	cap    int64
	used   atomic.Int64
	peak   atomic.Int64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewBlockCache creates a budget of capBytes. capBytes <= 0 keeps nothing:
// every coded packet is encoded when it is sent — still correct, maximally
// frugal.
func NewBlockCache(capBytes int64) *BlockCache { return &BlockCache{cap: capBytes} }

// Cap returns the configured byte budget.
func (c *BlockCache) Cap() int64 { return c.cap }

// Used returns the currently charged bytes.
func (c *BlockCache) Used() int64 { return c.used.Load() }

// Peak returns the high-water mark of charged bytes over the cache's life.
func (c *BlockCache) Peak() int64 { return c.peak.Load() }

// CacheStats is a snapshot of the cache's accounting.
type CacheStats struct {
	Lookups uint64 // Hits + Misses: one per touch of a coded row of a cached session
	Hits    uint64 // the row was resident
	Misses  uint64 // the row was encoded (one EncodeInto each)
	Used    int64  // currently charged bytes
	Peak    int64  // high-water mark of charged bytes
	Cap     int64  // configured budget
}

// StatsSnapshot returns the accounting picture. Each lookup counts exactly
// one hit or one miss, and Lookups is their sum as read, so Hits+Misses ==
// Lookups in every snapshot even while other goroutines probe.
func (c *BlockCache) StatsSnapshot() CacheStats {
	hits, misses, used := c.hits.Load(), c.misses.Load(), c.used.Load()
	return CacheStats{
		Lookups: hits + misses,
		Hits:    hits,
		Misses:  misses,
		Used:    used,
		Peak:    max(used, c.peak.Load()), // a reservation raises used first
		Cap:     c.cap,
	}
}

// reserve charges n bytes if the budget still has room for them.
func (c *BlockCache) reserve(n int64) bool {
	for {
		used := c.used.Load()
		if used+n > c.cap {
			return false
		}
		if !c.used.CompareAndSwap(used, used+n) {
			continue
		}
		for {
			if peak := c.peak.Load(); used+n <= peak || c.peak.CompareAndSwap(peak, used+n) {
				return true
			}
		}
	}
}

// Drop releases every row the session holds against this budget, and their
// charge, without stopping anyone's emission: a concurrent reader keeps the
// row it loaded. The session stays usable and may fill again.
func (c *BlockCache) Drop(owner *Session) {
	if owner.table.budget == c { // else not charged here: eager, rateless, or another budget's
		owner.table.release()
	}
}

// rowTable is a session's residency: one slot per encoding row, nil while
// the row is absent; rows are immutable once published. An eager session's
// table is complete from construction. A lazy session's starts empty — its
// columns, the source rows and any computed beside them, never come here —
// and a coded row becomes resident at its first touch if budget has room:
// first touch wins, nothing is evicted, and a row leaves only through
// release. A rateless session's has no slots: each index is sent once.
type rowTable struct {
	rows   []atomic.Pointer[[]byte]
	budget *BlockCache // nil: nothing is counted or kept (eager and rateless sessions)
}

// fullTable is the table of an eager session: the whole encoding.
func fullTable(enc [][]byte) *rowTable {
	t := &rowTable{rows: make([]atomic.Pointer[[]byte], len(enc))}
	for i := range enc {
		t.rows[i].Store(&enc[i])
	}
	return t
}

// get returns row idx if it is resident: one atomic load. Touches of a
// budgeted table are the budget's hits and misses.
func (t *rowTable) get(idx int) []byte {
	var row []byte
	if idx < len(t.rows) {
		if p := t.rows[idx].Load(); p != nil {
			row = *p
		}
	}
	if t.budget != nil {
		if row != nil {
			t.budget.hits.Add(1)
		} else {
			t.budget.misses.Add(1)
		}
	}
	return row
}

// keep makes a copy of the just-encoded row idx resident if the budget has
// room for it and no racing touch got there first.
func (t *rowTable) keep(idx int, row []byte) {
	n := int64(len(row))
	if t.budget == nil || !t.budget.reserve(n) {
		return
	}
	kept := bytes.Clone(row)
	if !t.rows[idx].CompareAndSwap(nil, &kept) {
		t.budget.used.Add(-n)
	}
}

// release makes every kept row absent and returns its charge. Each charge
// belongs to whoever swaps the row out, so release may race keep, get and
// itself.
func (t *rowTable) release() {
	for i := range t.rows {
		if p := t.rows[i].Swap(nil); p != nil {
			t.budget.used.Add(-int64(len(*p)))
		}
	}
}
