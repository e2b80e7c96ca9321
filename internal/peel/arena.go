package peel

// Arena hands out packet-sized buffers carved from 16-packet slabs and
// recycles them through a free list, so steady-state decoding allocates
// O(1) slabs per 16 packets instead of one buffer per packet. Buffers may
// hold stale bytes: callers copy over the full length or clear.
type Arena struct {
	PacketLen int
	slab      []byte
	free      [][]byte
}

// Alloc returns one PacketLen-byte buffer with arbitrary contents.
func (a *Arena) Alloc() []byte {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b
	}
	pl := a.PacketLen
	if len(a.slab) < pl {
		n := 16 * pl
		const minSlab = 16 << 10
		if n < minSlab {
			n = (minSlab + pl - 1) / pl * pl
		}
		a.slab = make([]byte, n)
	}
	b := a.slab[:pl:pl]
	a.slab = a.slab[pl:]
	return b
}

// Free returns a buffer obtained from Alloc to the free list.
func (a *Arena) Free(b []byte) {
	if b != nil {
		a.free = append(a.free, b)
	}
}
