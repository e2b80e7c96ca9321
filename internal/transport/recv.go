package transport

import (
	"errors"
	"net"
	"time"
)

// The batched receive path mirrors the send side: where SendBatch coalesces
// a carousel round into sendmmsg calls, RecvBatch drains the socket into
// the batch's own reusable buffers with recvmmsg (linux/amd64; a portable
// one-read fallback elsewhere), so a busy receiver pays one syscall and
// zero allocations for a whole burst of datagrams instead of one syscall
// and one 64 KiB allocation per packet.

// ErrClosed is returned by the receive calls once the client (or its
// socket) has been closed. Callers distinguish it from ErrTimeout to stop
// polling instead of burning a retry budget against a dead socket.
var ErrClosed = errors.New("transport: client closed")

// ErrTimeout is returned by the receive calls when the timeout elapses
// with no datagram. The client is still healthy; polling may continue.
var ErrTimeout = errors.New("transport: receive timed out")

// recvChunk is the most datagrams one RecvBatch call returns — the size of
// a batch's buffer set. 32 bounds a batch's memory to 64 KiB at
// the default buffer size while amortizing the wakeup ~30x on busy
// sockets.
const recvChunk = 32

// defaultRecvSize is the per-datagram receive buffer capacity. Wire
// packets are header + payload + tag; every codec in this repository pads
// payloads to at most 1024 bytes, so 2 KiB covers them with slack for
// future growth. SetRecvSize raises it for jumbo deployments.
const defaultRecvSize = 2048

// classifyRecvErr folds the socket error zoo into the two conditions
// receive loops act on: ErrClosed (stop) and ErrTimeout (poll again).
// Anything else is passed through.
func classifyRecvErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, net.ErrClosed):
		return ErrClosed
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return ErrTimeout
		}
		return err
	}
}

// RecvBatch is a reusable receive batch: a set of buffers a client fills
// with one RecvBatch call each time. The zero value is ready to use; the
// buffers are allocated at the first fill, as one slab, and kept across
// calls — regrown only when the client's receive size rises — so a
// steady-state receive loop allocates nothing. Free drops them.
//
// A RecvBatch belongs to one receive loop at a time — it is not safe for
// concurrent use.
type RecvBatch struct {
	bufs [][]byte
	pkts [][]byte
}

// ensure readies the batch for a fill: chunk buffers of at least size
// bytes each, packet views cleared.
func (rb *RecvBatch) ensure(chunk, size int) {
	if len(rb.bufs) < chunk || len(rb.bufs[0]) < size {
		slab := make([]byte, chunk*size)
		rb.bufs = make([][]byte, chunk)
		for i := range rb.bufs {
			rb.bufs[i] = slab[i*size : (i+1)*size : (i+1)*size]
		}
		rb.pkts = make([][]byte, 0, chunk)
	}
	rb.pkts = rb.pkts[:0]
}

// Packets returns the datagrams of the last fill, one slice per datagram,
// in arrival order. The views stay valid only until the next fill of this
// batch.
func (rb *RecvBatch) Packets() [][]byte { return rb.pkts }

// Len returns the number of datagrams in the last fill.
func (rb *RecvBatch) Len() int { return len(rb.pkts) }

// Free drops the batch's buffers. The batch may be reused afterwards (the
// next fill allocates fresh ones), but any previously returned packet
// views are dead.
func (rb *RecvBatch) Free() { *rb = RecvBatch{} }

// SetRecvSize sets the per-datagram receive buffer capacity for this
// client (default 2048). Datagrams longer than the buffer are truncated by
// the kernel, so deployments with jumbo packets should raise it to at
// least header + payload + tag before the first receive call.
func (c *UDPClient) SetRecvSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 256 {
		n = 256
	}
	c.recvSize = n
}

// SocketStats is the kernel's account of a client's receive socket,
// read with getsockopt(SO_MEMINFO).
type SocketStats struct {
	// Buffer is the receive buffer the kernel granted, in bytes: twice
	// the request, capped at twice net.core.rmem_max.
	Buffer int
	// Queued is the memory the datagrams waiting in the socket hold now,
	// charged at the kernel's per-datagram cost (a 1 040-byte wire packet
	// costs about 2 300 bytes on loopback).
	Queued int
	// Drops counts the datagrams the kernel dropped at this socket since
	// it was opened, a full buffer being the usual cause.
	Drops uint64
}

// Closed reports whether Close has been called. Receive loops use it (or
// the ErrClosed return) to stop polling a dead client.
func (c *UDPClient) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// RecvBatch fills rb with as many queued datagrams as one kernel visit
// yields (up to the batch's capacity), blocking up to timeout for the
// first one. It returns the number received; rb.Packets() holds the data.
// On linux/amd64 a whole backlog drains with one recvmmsg(2) call;
// elsewhere one datagram is read per call. The previous fill's packet
// views are invalidated.
//
// Errors: ErrTimeout when nothing arrived in time, ErrClosed once the
// client is closed. RecvBatch is a single-reader call — run one receive
// loop per client.
func (c *UDPClient) RecvBatch(rb *RecvBatch, timeout time.Duration) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	size := c.recvSize
	c.mu.Unlock()
	rb.ensure(recvChunk, size)
	c.conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := c.readBatch(rb)
	if err != nil {
		return 0, classifyRecvErr(err)
	}
	var nb uint64
	for _, p := range rb.pkts {
		nb += uint64(len(p))
	}
	c.rxPackets.Add(uint64(n))
	c.rxBytes.Add(nb)
	c.rxBatch.Observe(int64(n))
	return n, nil
}

// readBatchPortable reads one datagram into the batch's first buffer —
// the fallback fill when no kernel batch syscall is usable.
func (c *UDPClient) readBatchPortable(rb *RecvBatch) (int, error) {
	buf := rb.bufs[0]
	n, _, err := c.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return 0, err
	}
	rb.pkts = append(rb.pkts, buf[:n])
	return 1, nil
}
