package transport

import (
	"strconv"

	"repro/internal/metrics"
)

// batchSizeBounds are the histogram buckets shared by the send- and
// receive-side batch-size distributions. Power-of-two bounds up to the
// largest receive fill (four messages of up to 64 coalesced datagrams; the
// send batch cap, service.maxBatch, is 128) — a scrape of these histograms
// answers "is the batching actually amortizing syscalls, and by how much"
// directly.
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// RegisterMetrics exposes the server's traffic and hardening counters on a
// scrape registry. The counters themselves are always maintained (they are
// lock-free atomics on the send path); registration only wires them to the
// scraper, so it can happen any time after construction — typically right
// after NewUDPServer, alongside service wiring.
func (s *UDPServer) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("fountain_udp_tx_packets_total",
		"datagram writes handed to the kernel (per destination)", s.txPackets.Load)
	r.CounterFunc("fountain_udp_tx_bytes_total",
		"bytes handed to the kernel (per destination)", s.txBytes.Load)
	r.AddHistogram("fountain_udp_send_batch_size",
		"datagrams per per-subscriber kernel batch write", s.txBatch)
	r.GaugeFunc("fountain_udp_subscribers",
		"distinct subscriber addresses across all sessions and layers",
		func() float64 {
			s.mu.Lock()
			n := len(s.addrRef)
			s.mu.Unlock()
			return float64(n)
		})
	r.CounterFunc("fountain_udp_evictions_total",
		"subscribers evicted for persistent write errors",
		func() uint64 { return s.Hardening().Evictions })
	r.CounterFunc("fountain_udp_refused_joins_total",
		"joins refused by the admission cap or penalty box",
		func() uint64 { return s.Hardening().RefusedJoins })
	r.CounterFunc("fountain_udp_rate_dropped_total",
		"packets dropped by per-subscriber rate caps",
		func() uint64 { return s.Hardening().RateDropped })
}

// RegisterMetrics exposes the client's receive-side traffic counters on a
// scrape registry, under a source label so a process with several clients
// — one per concurrent download — can register each distinctly (src < 0
// omits the label).
func (c *UDPClient) RegisterMetrics(r *metrics.Registry, src int) {
	name := func(base string) string {
		if src < 0 {
			return base
		}
		return metrics.Label(base, "source", strconv.Itoa(src))
	}
	r.CounterFunc(name("fountain_udp_rx_packets_total"),
		"datagrams taken off the client socket", c.rxPackets.Load)
	r.CounterFunc(name("fountain_udp_rx_bytes_total"),
		"bytes taken off the client socket", c.rxBytes.Load)
	r.CounterFunc(name("fountain_udp_rx_stray_total"),
		"datagrams from an address that is none of the client's mirrors, dropped", c.rxStray.Load)
	// The kernel's side of the socket: one getsockopt per series per
	// scrape, zero where SocketStats is unsupported.
	sock := func() SocketStats {
		st, _ := c.SocketStats()
		return st
	}
	r.GaugeFunc(name("fountain_udp_rx_socket_buffer_bytes"),
		"receive buffer the kernel granted the client socket",
		func() float64 { return float64(sock().Buffer) })
	r.GaugeFunc(name("fountain_udp_rx_socket_queued_bytes"),
		"bytes queued in the client socket, at the kernel's per-datagram cost",
		func() float64 { return float64(sock().Queued) })
	r.CounterFunc(name("fountain_udp_rx_socket_drops_total"),
		"datagrams the kernel dropped at the client socket",
		func() uint64 { return sock().Drops })
	if src < 0 {
		r.AddHistogram("fountain_udp_recv_batch_size",
			"datagrams per kernel receive visit", c.rxBatch)
	}
}
