package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestRecvBatchLoopback drives enough packets through the real socket path
// to force multiple fills (and, on linux/amd64, multi-datagram recvmmsg
// fills) and checks that every packet arrives intact and in order.
func TestRecvBatchLoopback(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession(s.Addr(), 0xBA7C, 0)
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
	const n = 150 // > 4 * recvChunk: several fills even if each drains a full chunk
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
		if k != rb.Len() || k < 1 || k > recvChunk {
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

// TestRecvClosedVsTimeout pins satellite 2's contract on UDPClient: an idle
// socket yields ErrTimeout (keep polling), a closed one yields ErrClosed
// immediately (stop polling), and Closed() flips accordingly.
func TestRecvClosedVsTimeout(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession(s.Addr(), 0xBA7D, 0)
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
}

// TestSetRecvSize: datagrams larger than the default buffer are truncated
// by the kernel, so a raised receive size must round-trip a jumbo packet
// intact.
func TestSetRecvSize(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession(s.Addr(), 0xBA7E, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRecvSize(8192)
	deadline := time.Now().Add(5 * time.Second)
	for s.SessionSubscribers(0xBA7E, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	jumbo := testPacket(0xBA7E, 0, 1, bytes.Repeat([]byte{0xAB}, 4000))
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

// TestMultiClientBatchFunnel exercises the batch handoff end to end: two
// servers blast batches concurrently, RecvBatchFrom hands out whole
// source-tagged batches, and every packet is delivered exactly once.
func TestMultiClientBatchFunnel(t *testing.T) {
	const session = 0xF411
	srvs := make([]*UDPServer, 2)
	for i := range srvs {
		s, err := NewUDPServer("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs[i] = s
	}
	mc, err := NewMultiClient([]*net.UDPAddr{srvs[0].Addr(), srvs[1].Addr()}, session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srvs[0].SessionSubscribers(session, 0) == 0 || srvs[1].SessionSubscribers(session, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriptions never registered")
		}
		time.Sleep(time.Millisecond)
	}
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
	seen := [2]map[uint32]bool{{}, {}}
	for seen[0][perSrc] == false || seen[1][perSrc] == false {
		src, pkts, err := mc.RecvBatchFrom(5 * time.Second)
		if err != nil {
			t.Fatalf("with %d+%d packets seen: %v", len(seen[0]), len(seen[1]), err)
		}
		if len(pkts) == 0 {
			t.Fatal("empty batch handed out")
		}
		for _, pkt := range pkts {
			h, payload, err := proto.ParseHeader(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if int(h.Index) != src || int(payload[0]) != src {
				t.Fatalf("packet from server %d delivered as source %d", h.Index, src)
			}
			if seen[src][h.Serial] {
				t.Fatalf("source %d serial %d delivered twice", src, h.Serial)
			}
			seen[src][h.Serial] = true
		}
	}
	if len(seen[0]) != perSrc || len(seen[1]) != perSrc {
		t.Fatalf("delivered %d+%d packets, want %d each", len(seen[0]), len(seen[1]), perSrc)
	}
}

// TestMultiClientClosedVsTimeout pins satellite 2's contract on the funnel:
// ErrTimeout while idle, ErrClosed after Close — promptly, so download
// loops stop spinning once the client is torn down.
func TestMultiClientClosedVsTimeout(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mc, err := NewMultiClient([]*net.UDPAddr{s.Addr()}, 0xF412, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Closed() {
		t.Fatal("Closed() true before Close")
	}
	if _, _, err := mc.RecvBatchFrom(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("RecvBatchFrom on idle funnel: %v, want ErrTimeout", err)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	if !mc.Closed() {
		t.Fatal("Closed() false after Close")
	}
	start := time.Now()
	if _, _, err := mc.RecvBatchFrom(5 * time.Second); err != ErrClosed {
		t.Fatalf("RecvBatchFrom after Close: %v, want ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("closed receives blocked for %v", elapsed)
	}
	// Close is idempotent.
	if err := mc.Close(); err != nil {
		t.Fatal(err)
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

// TestMultiClientCloseLeaksNoGoroutine: Close joins every funnel goroutine
// it started and releases a consumer blocked inside RecvBatchFrom with
// ErrClosed — on an idle funnel and with batches in flight — so a receiver
// that opens and closes mirrors for months keeps a flat goroutine count.
func TestMultiClientCloseLeaksNoGoroutine(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		session := uint16(0xF420 + i) // fresh: the last round's leaves may still be queued
		mc, err := NewMultiClient([]*net.UDPAddr{s.Addr(), s.Addr()}, session, 0)
		if err != nil {
			t.Fatal(err)
		}
		first := make(chan struct{}, 1)
		consumer := make(chan error, 1)
		go func() {
			for {
				_, pkts, err := mc.RecvBatchFrom(5 * time.Second)
				if err != nil {
					consumer <- err
					return
				}
				for _, p := range pkts {
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
		if i%2 == 1 { // Close lands on a busy funnel
			waitSubs(t, func() bool { return s.SessionSubscribers(session, 0) == 2 }, "both sources")
			h := proto.Header{Index: 1, Serial: 1, Session: session}
			batch := make([][]byte, 64)
			for j := range batch {
				batch[j] = append(h.Marshal(nil), byte(j))
			}
			if err := s.SendBatch(0, batch); err != nil {
				t.Fatal(err)
			}
			<-first
		}
		if err := mc.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-consumer; err != ErrClosed {
			t.Fatalf("round %d: consumer ended with %v, want ErrClosed", i, err)
		}
	}
	waitGoroutines(t, base)
}
