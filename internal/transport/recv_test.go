package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
)

// TestRecvBatchLoopback drives enough packets through the real socket path
// to fill several kernel messages (on linux/amd64, multi-message recvmmsg
// fills, and with GSO and GRO multi-datagram messages) and checks that
// every packet arrives intact and in order, no fill returning more than
// recvMsgs runs of maxRun datagrams.
func TestRecvBatchLoopback(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession([]*net.UDPAddr{s.Addr()}, 0xBA7C, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.SessionSubscribers(0xBA7C, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	const n = 150 // > 2 * maxRun: several messages even if each carries a full run
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = testPacket(0xBA7C, 0, uint32(i+1), []byte(fmt.Sprintf("r%03d", i)))
	}
	if err := s.SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	var rb RecvBatch
	defer rb.Free()
	got := 0
	fills := 0
	for got < n {
		k, err := c.RecvBatch(&rb, 5*time.Second)
		if err != nil {
			t.Fatalf("fill %d after %d packets: %v", fills, got, err)
		}
		if k != rb.Len() || k < 1 || k > recvMsgs*maxRun {
			t.Fatalf("fill %d: n=%d, Len=%d", fills, k, rb.Len())
		}
		for _, pkt := range rb.Packets() {
			if !bytes.Equal(pkt, batch[got]) {
				t.Fatalf("packet %d differs (reordered or corrupted)", got)
			}
			got++
		}
		fills++
	}
	if fills > n {
		t.Fatalf("%d fills for %d packets", fills, n)
	}
	t.Logf("%d packets in %d fills", n, fills)
}

// TestRecvClosedVsTimeout pins the contract of UDPClient's terminal
// conditions: an idle socket yields ErrTimeout (keep polling), a closed one
// yields ErrClosed immediately (stop polling) from RecvBatch, SetLevel and
// Resubscribe alike, Closed() flips accordingly, and Close is idempotent.
func TestRecvClosedVsTimeout(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession([]*net.UDPAddr{s.Addr()}, 0xBA7D, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Closed() {
		t.Fatal("Closed() true before Close")
	}
	var rb RecvBatch
	defer rb.Free()
	if _, err := c.RecvBatch(&rb, 20*time.Millisecond); err != ErrTimeout {
		t.Fatalf("RecvBatch on idle socket: %v, want ErrTimeout", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.Closed() {
		t.Fatal("Closed() false after Close")
	}
	// A closed client must classify as ErrClosed, and fast: a receive
	// loop must not spin.
	start := time.Now()
	if _, err := c.RecvBatch(&rb, 5*time.Second); err != ErrClosed {
		t.Fatalf("RecvBatch after Close: %v, want ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("closed receives blocked for %v", elapsed)
	}
	for name, call := range map[string]func() error{
		"SetLevel":    func() error { return c.SetLevel(1) },
		"Resubscribe": c.Resubscribe,
	} {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s after Close: %v, want ErrClosed", name, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRecvBatchWholeDatagram: a message buffer holds the largest UDP
// payload, so a 60 000-byte datagram arrives whole, with no size to set.
func TestRecvBatchWholeDatagram(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession([]*net.UDPAddr{s.Addr()}, 0xBA7E, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubs(t, func() bool { return s.SessionSubscribers(0xBA7E, 0) == 1 }, "the subscription")
	jumbo := testPacket(0xBA7E, 0, 1, bytes.Repeat([]byte{0xAB}, 60000-proto.HeaderLen))
	if err := s.SendBatch(0, [][]byte{jumbo}); err != nil {
		t.Fatal(err)
	}
	var rb RecvBatch
	defer rb.Free()
	if _, err := c.RecvBatch(&rb, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Packets()[0], jumbo) {
		t.Fatalf("jumbo packet truncated: got %d bytes, want %d", len(rb.Packets()[0]), len(jumbo))
	}
}

// startServers starts n loopback servers of the given layer count, closed
// when the test ends.
func startServers(t *testing.T, n, layers int) ([]*UDPServer, []*net.UDPAddr) {
	t.Helper()
	srvs := make([]*UDPServer, n)
	addrs := make([]*net.UDPAddr, n)
	for i := range srvs {
		s, err := NewUDPServer("127.0.0.1:0", layers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		srvs[i], addrs[i] = s, s.Addr()
	}
	return srvs, addrs
}

// mirrorClient starts `mirrors` loopback servers and one client subscribed
// to layer 0 of session on all of them, and waits until every server has
// registered the join.
func mirrorClient(t *testing.T, session uint16, layers, mirrors int) ([]*UDPServer, *UDPClient) {
	t.Helper()
	srvs, addrs := startServers(t, mirrors, layers)
	c, err := NewUDPClientSession(addrs, session, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, s := range srvs {
		waitSubs(t, func() bool { return s.SessionSubscribers(session, 0) == 1 }, "the subscription")
	}
	return srvs, c
}

// TestMirrorsShareOneSocket: two servers carrying one session send into
// one client socket at once, and every datagram comes out once, attributed
// to the mirror that sent it.
func TestMirrorsShareOneSocket(t *testing.T) {
	const session = 0xF411
	srvs, c := mirrorClient(t, session, 1, 2)
	const perSrc = 80
	for src, s := range srvs {
		batch := make([][]byte, perSrc)
		for i := range batch {
			h := proto.Header{Index: uint32(src), Serial: uint32(i + 1), Session: session}
			batch[i] = append(h.Marshal(nil), byte(src), byte(i))
		}
		if err := s.SendBatch(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	var rb RecvBatch
	defer rb.Free()
	seen := [2]map[uint32]bool{{}, {}}
	for len(seen[0])+len(seen[1]) < 2*perSrc {
		if _, err := c.RecvBatch(&rb, 5*time.Second); err != nil {
			t.Fatalf("with %d+%d packets seen: %v", len(seen[0]), len(seen[1]), err)
		}
		for i, pkt := range rb.Packets() {
			h, payload, err := proto.ParseHeader(pkt)
			if err != nil {
				t.Fatal(err)
			}
			src := rb.Source(i)
			if int(h.Index) != src || int(payload[0]) != src {
				t.Fatalf("packet from server %d attributed to mirror %d", h.Index, src)
			}
			if seen[src][h.Serial] {
				t.Fatalf("mirror %d serial %d delivered twice", src, h.Serial)
			}
			seen[src][h.Serial] = true
		}
	}
	if len(seen[0]) != perSrc || len(seen[1]) != perSrc || c.rxStray.Load() != 0 {
		t.Fatalf("delivered %d+%d packets (want %d each), %d stray",
			len(seen[0]), len(seen[1]), perSrc, c.rxStray.Load())
	}
}

// TestMirrorLevelFanout: SetLevel joins and Close leaves every layer on
// every mirror.
func TestMirrorLevelFanout(t *testing.T) {
	const session = 0xCAFE
	srvs, c := mirrorClient(t, session, 2, 2)
	if err := c.SetLevel(1); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 1 {
		t.Fatalf("level = %d", c.Level())
	}
	waitSubs(t, func() bool {
		return srvs[0].SessionSubscribers(session, 1) == 1 && srvs[1].SessionSubscribers(session, 1) == 1
	}, "layer-1 joins on both mirrors")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitSubs(t, func() bool { return srvs[0].SubscriberTotal() == 0 && srvs[1].SubscriberTotal() == 0 },
		"the leaves on both mirrors")
}

// TestMultiClientClosedVsTimeout: a client fed by two mirrors keeps the
// one-mirror contract — ErrTimeout while both are idle, ErrClosed promptly
// after Close, Close idempotent — so a multi-source download loop stops
// spinning once the client is torn down.
func TestMultiClientClosedVsTimeout(t *testing.T) {
	_, c := mirrorClient(t, 0xF412, 1, 2)
	if c.Closed() {
		t.Fatal("Closed() true before Close")
	}
	var rb RecvBatch
	defer rb.Free()
	if _, err := c.RecvBatch(&rb, 20*time.Millisecond); err != ErrTimeout {
		t.Fatalf("RecvBatch with two idle mirrors: %v, want ErrTimeout", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.Closed() {
		t.Fatal("Closed() false after Close")
	}
	start := time.Now()
	if _, err := c.RecvBatch(&rb, 5*time.Second); err != ErrClosed {
		t.Fatalf("RecvBatch after Close: %v, want ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("closed receives blocked for %v", elapsed)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStrayDatagramDropped: a datagram that reaches the client's port from
// a third socket is dropped before the caller sees it and counted as
// stray; a visit that yields only strays keeps waiting.
func TestStrayDatagramDropped(t *testing.T) {
	const session = 0xF413
	srvs, c := mirrorClient(t, session, 1, 2)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg, 0)
	third, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	port := c.conn.LocalAddr().(*net.UDPAddr).Port
	to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	forged := testPacket(session, 0, 1, []byte("forged"))
	if _, err := third.WriteToUDP(forged, to); err != nil {
		t.Fatal(err)
	}
	var rb RecvBatch
	defer rb.Free()
	if _, err := c.RecvBatch(&rb, 100*time.Millisecond); err != ErrTimeout {
		t.Fatalf("a stray alone: %v, want ErrTimeout", err)
	}
	if _, err := third.WriteToUDP(forged, to); err != nil {
		t.Fatal(err)
	}
	genuine := testPacket(session, 0, 2, []byte("genuine"))
	if err := srvs[1].SendBatch(0, [][]byte{genuine}); err != nil {
		t.Fatal(err)
	}
	n, err := c.RecvBatch(&rb, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !bytes.Equal(rb.Packets()[0], genuine) || rb.Source(0) != 1 {
		t.Fatalf("delivered %d packets, first from mirror %d", n, rb.Source(0))
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if want := `fountain_udp_rx_stray_total{source="0"} 2`; !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, b.String())
	}
}

// TestMirrorListRefused: a mirror list the receive path could not
// attribute from — empty, repeating an address (also in its 4-in-6 form),
// mixing address families, or naming no unicast address — is refused
// before a socket opens.
func TestMirrorListRefused(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1).To4(), Port: 9000}
	for _, tc := range []struct {
		name, why string
		mirrors   []*net.UDPAddr
	}{
		{"empty", "at least one mirror", nil},
		{"duplicate", "repeats mirror 0",
			[]*net.UDPAddr{v4, {IP: net.IPv4(127, 0, 0, 2), Port: 9000}, {IP: net.IPv4(127, 0, 0, 1), Port: 9000}}},
		{"mixed", "address family", []*net.UDPAddr{v4, {IP: net.IPv6loopback, Port: 9000}}},
		{"unspecified", "no unicast address", []*net.UDPAddr{{IP: net.IPv4zero, Port: 9000}}},
	} {
		c, err := NewUDPClientSession(tc.mirrors, 0xF414, 0)
		if err == nil {
			c.Close()
			t.Errorf("%s mirror list accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s mirror list refused with %q, want %q", tc.name, err, tc.why)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count comes back to
// base: whatever was started since must have exited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMirrorCloseLeaksNoGoroutine: the receive side starts no goroutine,
// so a client on two mirrors opened and closed — idle, and with a receive
// loop inside RecvBatch while batches arrive — leaves the goroutine count
// at its baseline, and Close releases that loop with ErrClosed.
func TestMirrorCloseLeaksNoGoroutine(t *testing.T) {
	srvs, addrs := startServers(t, 2, 1)
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		session := uint16(0xF420 + i) // fresh: the last round's leaves may still be queued
		c, err := NewUDPClientSession(addrs, session, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := make(chan struct{}, 1)
		consumer := make(chan error, 1)
		go func() {
			var rb RecvBatch
			defer rb.Free()
			for {
				if _, err := c.RecvBatch(&rb, 5*time.Second); err != nil {
					consumer <- err
					return
				}
				for _, p := range rb.Packets() {
					if len(p) != proto.HeaderLen+1 {
						consumer <- fmt.Errorf("packet of %d bytes", len(p))
						return
					}
				}
				select {
				case first <- struct{}{}:
				default:
				}
			}
		}()
		if i%2 == 1 { // Close lands on a busy socket
			waitSubs(t, func() bool {
				return srvs[0].SessionSubscribers(session, 0) == 1 && srvs[1].SessionSubscribers(session, 0) == 1
			}, "both mirrors")
			h := proto.Header{Index: 1, Serial: 1, Session: session}
			batch := make([][]byte, 64)
			for j := range batch {
				batch[j] = append(h.Marshal(nil), byte(j))
			}
			for _, s := range srvs {
				if err := s.SendBatch(0, batch); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case <-first:
			case err := <-consumer:
				t.Fatalf("round %d: consumer ended with %v before a packet", i, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-consumer; err != ErrClosed {
			t.Fatalf("round %d: consumer ended with %v, want ErrClosed", i, err)
		}
	}
	waitGoroutines(t, base)
}
