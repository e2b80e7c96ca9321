package transport

import (
	"errors"
	"net"
	"net/netip"
	"time"
)

// The batched receive path mirrors the send side: where SendBatch coalesces
// a carousel round into sendmmsg calls, RecvBatch drains the socket into
// the batch's own reusable buffers with recvmmsg (linux/amd64; a portable
// one-read fallback elsewhere), so a busy receiver pays one syscall and
// zero allocations for a whole burst of datagrams instead of one syscall
// and one 64 KiB allocation per packet. Where the socket has UDP_GRO, one
// kernel message is a whole run of datagrams, cut apart here.

// ErrClosed is returned by the receive calls once the client (or its
// socket) has been closed. Callers distinguish it from ErrTimeout to stop
// polling instead of burning a retry budget against a dead socket.
var ErrClosed = errors.New("transport: client closed")

// ErrTimeout is returned by the receive calls when the timeout elapses
// with no datagram. The client is still healthy; polling may continue.
var ErrTimeout = errors.New("transport: receive timed out")

// recvMsgs is the number of kernel messages one RecvBatch call takes — the
// size of a batch's buffer set. Four bound a batch's memory to 256 KiB; a
// benchmark download allocates one batch, so more would show in its
// allocation per download.
const recvMsgs = 4

// recvMsgLen is the size of a message buffer: the largest UDP payload fits,
// so no datagram, nor run of coalesced datagrams, is ever truncated.
const recvMsgLen = 64 << 10

// maxRun is the most datagrams one message carries: the bound on the
// server's GSO runs and on the kernel's receive coalescing
// (UDP_GRO_CNT_MAX). A fill returns at most recvMsgs·maxRun datagrams from
// this repository's servers.
const maxRun = 64

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
// calls, so a steady-state receive loop allocates nothing. Free drops them.
//
// A RecvBatch belongs to one receive loop at a time — it is not safe for
// concurrent use.
type RecvBatch struct {
	bufs [][]byte // recvMsgs message buffers of recvMsgLen bytes
	pkts [][]byte
	srcs []int // srcs[i]: the mirror that sent pkts[i]
}

// ensure readies the batch for a fill: its message buffers allocated,
// packet views cleared.
func (rb *RecvBatch) ensure() {
	if rb.bufs == nil {
		slab := make([]byte, recvMsgs*recvMsgLen)
		rb.bufs = make([][]byte, recvMsgs)
		for i := range rb.bufs {
			rb.bufs[i] = slab[i*recvMsgLen : (i+1)*recvMsgLen : (i+1)*recvMsgLen]
		}
		rb.pkts = make([][]byte, 0, recvMsgs*maxRun)
		rb.srcs = make([]int, 0, recvMsgs*maxRun)
	}
	rb.pkts, rb.srcs = rb.pkts[:0], rb.srcs[:0]
}

// Packets returns the datagrams of the last fill, one slice per datagram,
// in arrival order. The views stay valid only until the next fill of this
// batch.
func (rb *RecvBatch) Packets() [][]byte { return rb.pkts }

// Source returns the index, in the client's mirror list, of the mirror
// that sent packet i of the last fill.
func (rb *RecvBatch) Source(i int) int { return rb.srcs[i] }

// Len returns the number of datagrams in the last fill.
func (rb *RecvBatch) Len() int { return len(rb.pkts) }

// Free drops the batch's buffers. The batch may be reused afterwards (the
// next fill allocates fresh ones), but any previously returned packet
// views are dead.
func (rb *RecvBatch) Free() { *rb = RecvBatch{} }

// SocketStats is the kernel's account of a client's receive socket,
// read with getsockopt(SO_MEMINFO).
type SocketStats struct {
	// Buffer is the receive buffer the kernel granted, in bytes: twice
	// the request, capped at twice net.core.rmem_max.
	Buffer int
	// Queued is the memory the datagrams waiting in the socket hold now,
	// charged at the kernel's per-buffer cost (a lone 1 040-byte wire
	// packet costs about 2 300 bytes on loopback, one in a coalesced run
	// about 1 070).
	Queued int
	// Drops counts what the kernel dropped at this socket since it was
	// opened, a full buffer being the usual cause: one per kernel buffer,
	// a lone datagram or a whole coalesced run (UDP GRO).
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
// first one. It returns the number received; rb.Packets() holds the data
// and rb.Source(i) the mirror that sent packet i. A datagram from an
// address that is none of the client's mirrors is stray: it is dropped
// here and counted, and a visit that yields only strays waits on. On
// linux/amd64 one recvmmsg(2) call takes up to recvMsgs messages, each a
// run of up to maxRun datagrams where the kernel coalesced them (UDP_GRO);
// elsewhere one datagram is read per call. A datagram is never truncated.
// The previous fill's packet views are invalidated.
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
	c.mu.Unlock()
	rb.ensure()
	c.conn.SetReadDeadline(time.Now().Add(timeout))
	for len(rb.pkts) == 0 {
		if err := c.readBatch(rb); err != nil {
			return 0, classifyRecvErr(err)
		}
	}
	n := len(rb.pkts)
	var nb uint64
	for _, p := range rb.pkts {
		nb += uint64(len(p))
	}
	c.rxPackets.Add(uint64(n))
	c.rxBytes.Add(nb)
	c.rxBatch.Observe(int64(n))
	return n, nil
}

// accept adds the datagrams of one kernel message to rb if from is one of
// the client's mirrors (in mirrorKey form), and counts each stray
// otherwise. The message is cut every seg bytes, the last datagram possibly
// shorter; seg ≤ 0 makes it one datagram, and an empty message is one
// empty datagram.
func (c *UDPClient) accept(rb *RecvBatch, msg []byte, seg int, from netip.AddrPort) {
	if seg <= 0 || seg > len(msg) {
		seg = len(msg)
	}
	src := c.mirrorOf(from)
	if src < 0 {
		n := 1
		if seg > 0 {
			n = (len(msg) + seg - 1) / seg
		}
		c.rxStray.Add(uint64(n))
		return
	}
	for {
		n := min(seg, len(msg))
		rb.pkts = append(rb.pkts, msg[:n:n])
		rb.srcs = append(rb.srcs, src)
		if msg = msg[n:]; len(msg) == 0 {
			return
		}
	}
}

// readBatchPortable reads one datagram into the batch's first buffer —
// the fallback fill when no kernel batch syscall is usable.
func (c *UDPClient) readBatchPortable(rb *RecvBatch) error {
	n, from, err := c.conn.ReadFromUDPAddrPort(rb.bufs[0])
	if err != nil {
		return err
	}
	c.accept(rb, rb.bufs[0][:n], n, mirrorKey(from))
	return nil
}
