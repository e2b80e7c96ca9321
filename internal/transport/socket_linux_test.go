//go:build linux && amd64

package transport

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// wireLen is the benchmark's wire packet: 12-byte header, 1 024-byte
// payload, 4-byte tag.
const wireLen = 1040

// rmemMax reads net.core.rmem_max, the cap on a requested receive buffer.
func rmemMax(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// stalledClient starts `mirrors` loopback servers and one client
// subscribed to session on layer 0 of all of them, and checks that the
// client's socket got the buffer Linux grants for rxSocketBuffer:
// 2·min(request, rmem_max).
func stalledClient(t *testing.T, session uint16, mirrors int) ([]*UDPServer, *UDPClient, SocketStats) {
	t.Helper()
	srvs, c := mirrorClient(t, session, 1, mirrors)
	st, err := c.SocketStats()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * min(rxSocketBuffer, rmemMax(t)); st.Buffer != want {
		t.Fatalf("granted %d bytes, want 2·min(%d, rmem_max) = %d", st.Buffer, rxSocketBuffer, want)
	}
	if st.Queued != 0 || st.Drops != 0 {
		t.Fatalf("fresh socket: %+v", st)
	}
	return srvs, c, st
}

// capacity measures what one queued datagram of pkt's size costs the socket
// and returns how many such datagrams the granted buffer holds. The probe
// is read back off the socket.
func capacity(t *testing.T, s *UDPServer, c *UDPClient, st SocketStats, pkt []byte) int {
	t.Helper()
	if err := s.SendBatch(0, [][]byte{pkt}); err != nil {
		t.Fatal(err)
	}
	var q SocketStats
	deadline := time.Now().Add(2 * time.Second)
	for q.Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe datagram never queued")
		}
		var err error
		if q, err = c.SocketStats(); err != nil {
			t.Fatal(err)
		}
	}
	var rb RecvBatch
	defer rb.Free()
	if n, err := c.RecvBatch(&rb, 2*time.Second); err != nil || n != 1 {
		t.Fatalf("probe: %d datagrams, %v", n, err)
	}
	return st.Buffer / q.Queued
}

// runCapacity is capacity measured on a burst sent in batches of run
// datagrams: with GSO and GRO each batch queues as one kernel buffer, at
// about half a lone datagram's cost per datagram. The probes are read back
// off the socket.
func runCapacity(t *testing.T, s *UDPServer, c *UDPClient, st SocketStats, pkts [][]byte, run int) int {
	t.Helper()
	sendRuns(t, s, pkts, run)
	// Loopback delivery runs in softirq context: wait until the queue
	// stops growing.
	var q, last SocketStats
	deadline := time.Now().Add(2 * time.Second)
	for q.Queued == 0 || q.Queued != last.Queued {
		if time.Now().After(deadline) {
			t.Fatal("probe burst never settled in the queue")
		}
		last = q
		time.Sleep(5 * time.Millisecond)
		var err error
		if q, err = c.SocketStats(); err != nil {
			t.Fatal(err)
		}
	}
	var rb RecvBatch
	defer rb.Free()
	for got := 0; got < len(pkts); {
		n, err := c.RecvBatch(&rb, 2*time.Second)
		if err != nil {
			t.Fatalf("probe burst: %d of %d datagrams, %v", got, len(pkts), err)
		}
		got += n
	}
	return int(int64(st.Buffer) * int64(len(pkts)) / int64(q.Queued))
}

// sendRuns sends pkts in batches of run datagrams.
func sendRuns(t *testing.T, s *UDPServer, pkts [][]byte, run int) {
	t.Helper()
	for lo := 0; lo < len(pkts); lo += run {
		if err := s.SendBatch(0, pkts[lo:min(lo+run, len(pkts))]); err != nil {
			t.Fatal(err)
		}
	}
}

// sendBurst sends pkts to the stalled client in chunks of one send batch.
func sendBurst(t *testing.T, s *UDPServer, pkts [][]byte) {
	t.Helper()
	for len(pkts) > 0 {
		n := min(len(pkts), 128)
		if err := s.SendBatch(0, pkts[:n]); err != nil {
			t.Fatal(err)
		}
		pkts = pkts[n:]
	}
}

// TestUDPClientAbsorbsStall: a client that stops reading while 1 000 wire
// packets arrive loses none of them. At the kernel's default receive
// buffer (212 992 bytes) only 92 would survive. Where rmem_max caps the
// grant below 1 000 packets, the burst shrinks to what the grant holds.
func TestUDPClientAbsorbsStall(t *testing.T) {
	const session = 0xBA80
	srvs, c, st := stalledClient(t, session, 1)
	s := srvs[0]
	payload := make([]byte, wireLen-len(testPacket(session, 0, 0, nil)))
	fit := capacity(t, s, c, st, testPacket(session, 0, 0, payload))
	burst := 1000
	if fit*9/10 < burst {
		burst = fit * 9 / 10
		t.Logf("rmem_max grants %d bytes, %d packets: burst cut to %d", st.Buffer, fit, burst)
	}
	pkts := make([][]byte, burst)
	for i := range pkts {
		pkts[i] = testPacket(session, 0, uint32(i+1), payload)
	}
	sendBurst(t, s, pkts)

	var rb RecvBatch
	defer rb.Free()
	got := 0
	for got < burst {
		n, err := c.RecvBatch(&rb, time.Second)
		if err != nil {
			break
		}
		got += n
	}
	after, err := c.SocketStats()
	if err != nil {
		t.Fatal(err)
	}
	if got != burst || after.Drops != 0 {
		t.Fatalf("drained %d of %d, kernel dropped %d (grant %d bytes, %d packets)",
			got, burst, after.Drops, st.Buffer, fit)
	}
	t.Logf("%d packets absorbed; the grant holds %d", burst, fit)
}

// TestRxLossMatchesKernelDrops: the loss the client engine infers from
// serial gaps is exactly what the kernel dropped at the socket — from one
// mirror, and from two servers carrying one session into the one socket,
// where the engine sums the loss over both sources. The kernel queues,
// drops and counts whole buffers: a datagram each, or, where the server
// has GSO and the client GRO, a whole run. So the burst goes out in
// batches of one full run each, and the engine's loss must be the kernel's
// drops times the datagrams in a buffer. The client stalls through a burst
// of twice what its buffer holds — measured on a probe burst sent the same
// way, since a coalesced run costs the queue less per datagram than a lone
// datagram does — drains through RecvBatch and Engine.HandlePacketFrom,
// and one last packet per mirror reveals the gap the drops left at the
// tail.
func TestRxLossMatchesKernelDrops(t *testing.T) {
	for mirrors := 1; mirrors <= 2; mirrors++ {
		t.Run(fmt.Sprintf("mirrors=%d", mirrors), func(t *testing.T) {
			rxLossMatchesKernelDrops(t, 0xBA80+uint16(mirrors), mirrors)
		})
	}
}

func rxLossMatchesKernelDrops(t *testing.T, session uint16, mirrors int) {
	cfg := core.DefaultConfig()
	cfg.Layers, cfg.PacketLen, cfg.Session = 1, wireLen-16, session
	sess, err := core.NewSession(make([]byte, 64*cfg.PacketLen), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := client.NewMultiSource(sess.Info(), mirrors, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvs, c, st := stalledClient(t, session, mirrors)
	// Every packet carries index 0 under its own serial: the engine
	// accounts each one, and the decode never completes.
	probe := sess.AppendPacket(nil, 0, 0, 0, 0)
	if len(probe) != wireLen {
		t.Fatalf("wire packet of %d bytes, want %d", len(probe), wireLen)
	}
	run := min(maxRun, gsoMaxBytes/wireLen)
	perBuffer := 1
	if srvs[0].gso && c.gro {
		perBuffer = run
	}
	probes := make([][]byte, 16*run)
	for i := range probes {
		probes[i] = probe
	}
	fit := runCapacity(t, srvs[0], c, st, probes, run)
	// Twice what the buffer holds, in whole runs, split over the mirrors
	// and sent one run from each in turn, plus one tail packet each. (The
	// engine counts a gap only after a source's first packet.)
	burst := (2*fit/mirrors + run - 1) / run * run
	pkts := make([][]byte, burst+1)
	for i := range pkts {
		pkts[i] = sess.AppendPacket(nil, 0, 0, uint32(i+1), 0)
	}
	for lo := 0; lo < burst; lo += run {
		for _, s := range srvs {
			sendRuns(t, s, pkts[lo:lo+run], run)
		}
	}

	var rb RecvBatch
	defer rb.Free()
	drain := func() {
		for {
			if _, err := c.RecvBatch(&rb, 200*time.Millisecond); err != nil {
				return
			}
			for i, pkt := range rb.Packets() {
				if _, err := eng.HandlePacketFrom(rb.Source(i), pkt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drain()
	for _, s := range srvs {
		sendBurst(t, s, pkts[burst:])
	}
	drain()

	kernel, err := c.SocketStats()
	if err != nil {
		t.Fatal(err)
	}
	if kernel.Drops == 0 {
		t.Fatalf("a burst of %d into a buffer holding %d dropped nothing", mirrors*burst, fit)
	}
	lost := 0
	for src := range mirrors {
		ss := eng.SourceStats(src)
		if ss.Received+ss.Lost != burst+1 {
			t.Fatalf("mirror %d: received %d + lost %d != sent %d", src, ss.Received, ss.Lost, burst+1)
		}
		lost += ss.Lost
	}
	if uint64(lost) != kernel.Drops*uint64(perBuffer) {
		t.Fatalf("engine counted %d lost, kernel dropped %d buffers of %d datagrams",
			lost, kernel.Drops, perBuffer)
	}
	t.Logf("%d mirrors × %d packets: lost %d = kernel drops %d × %d datagrams per buffer",
		mirrors, burst+1, lost, kernel.Drops, perBuffer)
}
