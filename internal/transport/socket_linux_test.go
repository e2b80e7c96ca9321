//go:build linux && amd64

package transport

import (
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

// stalledPair starts a loopback server and a client subscribed to session
// on layer 0, and checks that the client's socket got the buffer Linux
// grants for rxSocketBuffer: 2·min(request, rmem_max).
func stalledPair(t *testing.T, session uint16) (*UDPServer, *UDPClient, SocketStats) {
	t.Helper()
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := NewUDPClientSession(s.Addr(), session, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	waitSubs(t, func() bool { return s.SessionSubscribers(session, 0) == 1 }, "the subscription")
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
	return s, c, st
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
	s, c, st := stalledPair(t, session)
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
// serial gaps is exactly what the kernel dropped at the socket. The client
// stalls through a burst of twice what its buffer holds, drains through
// Engine.HandleBatchFrom, and one last packet reveals the gap the drops
// left at the tail.
func TestRxLossMatchesKernelDrops(t *testing.T) {
	const session = 0xBA81
	cfg := core.DefaultConfig()
	cfg.Layers, cfg.PacketLen, cfg.Session = 1, wireLen-16, session
	sess, err := core.NewSession(make([]byte, 64*cfg.PacketLen), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := client.New(sess.Info(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, c, st := stalledPair(t, session)
	// Every packet carries index 0 under its own serial: the engine
	// accounts each one, and the decode never completes.
	probe := sess.AppendPacket(nil, 0, 0, 0, 0)
	if len(probe) != wireLen {
		t.Fatalf("wire packet of %d bytes, want %d", len(probe), wireLen)
	}
	fit := capacity(t, s, c, st, probe)
	burst := 2 * fit
	pkts := make([][]byte, burst+1)
	for i := range pkts {
		pkts[i] = sess.AppendPacket(nil, 0, 0, uint32(i+1), 0)
	}
	sendBurst(t, s, pkts[:burst])

	var rb RecvBatch
	defer rb.Free()
	drain := func() {
		for {
			if _, err := c.RecvBatch(&rb, 200*time.Millisecond); err != nil {
				return
			}
			if _, err := eng.HandleBatchFrom(0, rb.Packets()); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain()
	sendBurst(t, s, pkts[burst:])
	drain()

	kernel, err := c.SocketStats()
	if err != nil {
		t.Fatal(err)
	}
	src := eng.SourceStats(0)
	if kernel.Drops == 0 {
		t.Fatalf("a burst of %d into a buffer holding %d dropped nothing", burst, fit)
	}
	if uint64(src.Lost) != kernel.Drops {
		t.Fatalf("engine counted %d lost, kernel dropped %d", src.Lost, kernel.Drops)
	}
	if sent := burst + 1; src.Received+src.Lost != sent {
		t.Fatalf("received %d + lost %d != sent %d", src.Received, src.Lost, sent)
	}
	t.Logf("burst %d: received %d, lost %d = kernel drops", burst+1, src.Received, src.Lost)
}
