package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// MultiClient joins the same session on several fountain servers at once —
// the receiver half of the §8 mirrored-server application. Each source is
// an independent UDPClient (own socket, own subscription state); one
// goroutine per source drains its socket in batches (RecvBatch — recvmmsg
// on linux/amd64) and hands whole batches, tagged with their source index,
// to the consumer through a fixed set of recycled batch carriers. Because
// fountain packets from mirrors of one encoding are interchangeable, no
// coordination between the sources is needed: the client engine simply
// decodes the union.
//
// The handoff is allocation-free in steady state: a bounded ring of
// sourcedBatch carriers cycles between a free channel and the delivery
// channel, each carrying its own receive buffers. Compared to the
// old per-packet channel sends, a 32-datagram burst costs one channel
// round-trip instead of 32.
type MultiClient struct {
	clients []*UDPClient
	ch      chan *sourcedBatch // filled batches, pull → consumer
	free    chan *sourcedBatch // empty carriers, consumer → pull
	done    chan struct{}
	wg      sync.WaitGroup
	closing sync.Once

	mu    sync.Mutex
	level int

	// The carrier whose packets the consumer holds, recycled by the next
	// RecvBatchFrom. RecvBatchFrom is single-consumer (like
	// UDPClient.RecvBatch): run one receive loop per MultiClient.
	cur *sourcedBatch
}

// sourcedBatch is one batch handoff carrier: a receive batch plus the
// index of the source that filled it.
type sourcedBatch struct {
	src int
	rb  RecvBatch
}

// NewMultiClient dials every server's data port and subscribes each to
// layers 0..level of the given session. Source indices in RecvBatchFrom
// correspond to positions in servers. On any error the already-opened
// sockets are closed.
func NewMultiClient(servers []*net.UDPAddr, session uint16, level int) (*MultiClient, error) {
	if len(servers) == 0 {
		return nil, errors.New("transport: multi-client needs at least one server")
	}
	// Carrier count: one in flight per source, one being drained by the
	// consumer, and slack so a source never stalls waiting for a carrier
	// while the consumer holds one.
	carriers := 2*len(servers) + 2
	m := &MultiClient{
		ch:    make(chan *sourcedBatch, carriers),
		free:  make(chan *sourcedBatch, carriers),
		done:  make(chan struct{}),
		level: level,
	}
	for i := 0; i < carriers; i++ {
		m.free <- &sourcedBatch{}
	}
	for i, addr := range servers {
		c, err := NewUDPClientSession(addr, session, level)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: source %d (%s): %w", i, addr, err)
		}
		m.clients = append(m.clients, c)
	}
	for i, c := range m.clients {
		m.wg.Add(1)
		go m.pull(i, c)
	}
	return m, nil
}

// SetRecvSize sets the per-datagram receive buffer capacity on every
// source (see UDPClient.SetRecvSize). Call before the first packets flow.
func (m *MultiClient) SetRecvSize(n int) {
	for _, c := range m.clients {
		c.SetRecvSize(n)
	}
}

// RegisterMetrics registers every source's UDPClient series on r, source i
// under the label base+i.
func (m *MultiClient) RegisterMetrics(r *metrics.Registry, base int) {
	for i, c := range m.clients {
		c.RegisterMetrics(r, base+i)
	}
}

// pull is one source's read loop: socket → batch → tagged handoff.
func (m *MultiClient) pull(src int, c *UDPClient) {
	defer m.wg.Done()
	for {
		var sb *sourcedBatch
		select {
		case sb = <-m.free:
		case <-m.done:
			return
		}
		// A short read deadline doubles as the shutdown poll interval.
		_, err := c.RecvBatch(&sb.rb, 250*time.Millisecond)
		if err != nil {
			m.free <- sb
			if err == ErrClosed {
				return // socket is gone for good: stop polling it
			}
			select {
			case <-m.done:
				return
			default:
				continue // timeout (or transient error): poll again
			}
		}
		sb.src = src
		select {
		case m.ch <- sb:
		case <-m.done:
			m.free <- sb
			return
		}
	}
}

// Sources returns the number of joined servers.
func (m *MultiClient) Sources() int { return len(m.clients) }

// RecvBatchFrom blocks up to timeout for the next batch of packets from
// any source and returns the packets with the index of the server that
// sent them. The returned views are valid until the next RecvBatchFrom
// call on this client (which recycles the carrier). Errors: ErrTimeout,
// ErrClosed.
func (m *MultiClient) RecvBatchFrom(timeout time.Duration) (src int, pkts [][]byte, err error) {
	if m.cur != nil {
		m.free <- m.cur
		m.cur = nil
	}
	select {
	case <-m.done:
		return 0, nil, ErrClosed // closed: don't drain stale buffered batches
	default:
	}
	// Fast path: a buffered batch needs no timer — on a busy stream this
	// keeps the per-batch cost to one channel receive.
	select {
	case m.cur = <-m.ch:
		return m.cur.src, m.cur.rb.pkts, nil
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m.cur = <-m.ch:
		return m.cur.src, m.cur.rb.pkts, nil
	case <-m.done:
		return 0, nil, ErrClosed
	case <-t.C:
		return 0, nil, ErrTimeout
	}
}

// SetLevel adjusts the cumulative subscription level on every source — the
// worst-source congestion rule yields one effective level, and all mirrors
// are (un)subscribed together. The first error is returned, but every
// source is attempted.
func (m *MultiClient) SetLevel(level int) error {
	m.mu.Lock()
	m.level = level
	m.mu.Unlock()
	var first error
	for _, c := range m.clients {
		if err := c.SetLevel(level); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Level returns the last level requested via SetLevel (or the initial
// one).
func (m *MultiClient) Level() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.level
}

// Rejoin re-sends the subscription joins of one source — the recovery
// action when that mirror went silent because it crashed and came back
// with an empty membership table. Joins are idempotent, so rejoining a
// healthy mirror is harmless.
func (m *MultiClient) Rejoin(src int) error {
	if src < 0 || src >= len(m.clients) {
		return fmt.Errorf("transport: no source %d", src)
	}
	return m.clients[src].Resubscribe()
}

// Closed reports whether Close has been called.
func (m *MultiClient) Closed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Close unsubscribes and closes every source socket and waits for the
// funnel goroutines to exit. It may be called while RecvBatchFrom is in
// flight.
func (m *MultiClient) Close() error {
	var first error
	m.closing.Do(func() {
		close(m.done)
		for _, c := range m.clients {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		m.wg.Wait()
	})
	return first
}
