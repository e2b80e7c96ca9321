package transport

import "sync"

// Sender is the transmit side of a transport. SendBatch emits a whole
// per-layer batch in one call, letting the transport amortize routing and
// syscalls across the batch (the UDP substrate coalesces each subscriber's
// writes, the in-process Bus snapshots its subscriber set once). Bus and
// UDPServer both satisfy it.
//
// Buffer ownership: a caller that builds packets in pooled buffers may
// reuse them as soon as SendBatch returns — transports (and Bus handlers)
// must copy anything they keep. All decoders in this repository copy
// payloads on Add, so the contract holds end to end.
type Sender interface {
	SendBatch(layer int, pkts [][]byte) error
}

// Buf is one pooled packet buffer. Build the packet in B (starting from
// B[:0]), keep the filled slice in B, and hand the Buf back to its pool
// once the transport is done with it.
type Buf struct {
	B []byte
}

// BufPool is a sync.Pool-backed pool of packet buffers for the zero-alloc
// send path: a paced sender Gets a buffer per packet, appends header and
// payload into it, and Puts it back after the batch is sent. Buffers grow
// to the largest requested capacity and are reused indefinitely, so
// steady-state emission allocates nothing.
type BufPool struct {
	pool sync.Pool
}

// NewBufPool creates an empty pool.
func NewBufPool() *BufPool {
	p := &BufPool{}
	p.pool.New = func() any { return &Buf{} }
	return p
}

// Get returns a buffer whose B has length 0 and capacity at least size.
func (p *BufPool) Get(size int) *Buf {
	b := p.pool.Get().(*Buf)
	if cap(b.B) < size {
		b.B = make([]byte, 0, size)
	} else {
		b.B = b.B[:0]
	}
	return b
}

// Put releases a buffer back to the pool. The caller must not touch b (or
// any slice of b.B) afterwards.
func (p *BufPool) Put(b *Buf) {
	p.pool.Put(b)
}

// freeListCap bounds a FreeList's private cache; beyond it, buffers
// overflow to the shared pool so an idle emitter cannot strand memory.
const freeListCap = 256

// FreeList is a single-goroutine buffer cache in front of a shared
// BufPool. A paced emitter turns over the same few dozen buffers every
// round; recycling them through a private stack costs two slice ops
// instead of sync.Pool's per-P machinery (which profiles at ~40% of the
// send path at high packet rates). Get falls through to the pool when the
// stack is empty, Put overflows to it when the stack is full — so memory
// still belongs to (and is reclaimed through) the shared pool.
//
// A FreeList is not safe for concurrent use; give each emitter its own.
type FreeList struct {
	pool *BufPool
	free []*Buf
}

// NewFreeList creates an empty free list backed by the shared pool.
func NewFreeList(pool *BufPool) *FreeList {
	return &FreeList{pool: pool}
}

// Get returns a buffer whose B has length 0 and capacity at least size.
func (f *FreeList) Get(size int) *Buf {
	if n := len(f.free); n > 0 {
		b := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		if cap(b.B) >= size {
			b.B = b.B[:0]
			return b
		}
		b.B = make([]byte, 0, size)
		return b
	}
	return f.pool.Get(size)
}

// Put releases a buffer back to the free list (or the shared pool once
// the list is full). The caller must not touch b afterwards.
func (f *FreeList) Put(b *Buf) {
	if len(f.free) < freeListCap {
		f.free = append(f.free, b)
		return
	}
	f.pool.Put(b)
}
