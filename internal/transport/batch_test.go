package transport

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/proto"
)

func testPacket(session uint16, layer uint8, serial uint32, payload []byte) []byte {
	return append(proto.Header{
		Index: serial, Serial: serial, Group: layer, Session: session,
	}.Marshal(nil), payload...)
}

// subscribeDirect injects a subscription without the SUB datagram
// round-trip, so fan-out tests need no socket timing.
func subscribeDirect(s *UDPServer, session uint16, layer uint8, addr netip.AddrPort) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := subKey{session, layer}
	set := s.subs[key]
	if set == nil {
		set = make(map[netip.AddrPort]struct{})
		s.subs[key] = set
	}
	if _, dup := set[addr]; !dup {
		set[addr] = struct{}{}
		s.addrRef[addr]++
	}
}

// TestSendFanoutBufferIdentity is the encode-once/write-many regression
// test: across the whole fan-out of SendBatch — every subscriber,
// every packet — the byte slice handed to the write layer must be the very
// buffer the caller passed in (same backing array, same length). One
// encode, N writes, zero copies.
func TestSendFanoutBufferIdentity(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	subs := []netip.AddrPort{
		netip.MustParseAddrPort("127.0.0.1:19001"),
		netip.MustParseAddrPort("127.0.0.1:19002"),
		netip.MustParseAddrPort("127.0.0.1:19003"),
	}
	for _, a := range subs {
		subscribeDirect(s, 0xDF98, 1, a)
	}
	type write struct {
		head *byte
		n    int
	}
	var writes []write
	s.batchPortable = true // route the batch path through writeOne
	s.writeOne = func(pkt []byte, to netip.AddrPort) error {
		writes = append(writes, write{&pkt[0], len(pkt)})
		return nil
	}

	batch := [][]byte{
		testPacket(0xDF98, 1, 1, []byte("payload")),
		testPacket(0xDF98, 1, 2, []byte("payload2")),
		testPacket(0xDF98, 1, 3, []byte("payload3")),
	}
	if err := s.SendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	if want := len(subs) * len(batch); len(writes) != want {
		t.Fatalf("SendBatch fanned out %d writes, want %d", len(writes), want)
	}
	// Per-subscriber coalescing: each subscriber sees the whole batch in
	// order, and every write reuses the caller's exact buffers.
	for wi, w := range writes {
		want := batch[wi%len(batch)]
		if w.head != &want[0] || w.n != len(want) {
			t.Fatalf("SendBatch write %d used a different buffer (copied or re-encoded)", wi)
		}
	}
}

// TestSendBatchZeroAlloc: a multi-packet batch to one IPv4 subscriber — the
// sendmmsg path every paced pop now takes — must not allocate: the
// sockaddr/iovec/mmsghdr arrays and the RawConn callback live in the
// server's reusable sendState, not in writeBatchTo's frame (from where they
// escaped, ~5 KiB per batch).
func TestSendBatchZeroAlloc(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A bound, never-read loopback socket: datagrams beyond its buffer are
	// dropped by the kernel, the sender never blocks.
	sub, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	subscribeDirect(s, 0x5A, 0, sub.LocalAddr().(*net.UDPAddr).AddrPort())
	batch := make([][]byte, mmsgChunk)
	for i := range batch {
		batch[i] = testPacket(0x5A, 0, uint32(i), bytes.Repeat([]byte{byte(i)}, 1024))
	}
	send := func() {
		if err := s.SendBatch(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	send() // builds the sendState, grows the address scratch
	if allocs := testing.AllocsPerRun(100, send); allocs > 0 {
		t.Fatalf("SendBatch of a %d-packet batch allocates %.2f times", len(batch), allocs)
	}
	if pk, _ := s.Traffic(); pk != 102*mmsgChunk {
		t.Fatalf("Traffic counts %d datagram writes, want %d", pk, 102*mmsgChunk)
	}
}

// TestSendBatchRoutesSessionRuns: a batch mixing session ids must route
// each run to its own subscriber set.
func TestSendBatchRoutesSessionRuns(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	aAddr := netip.MustParseAddrPort("127.0.0.1:19011")
	bAddr := netip.MustParseAddrPort("127.0.0.1:19012")
	subscribeDirect(s, 0xAAAA, 0, aAddr)
	subscribeDirect(s, 0xBBBB, 0, bAddr)
	got := map[netip.AddrPort]int{}
	s.batchPortable = true
	s.writeOne = func(pkt []byte, to netip.AddrPort) error {
		got[to]++
		return nil
	}
	batch := [][]byte{
		testPacket(0xAAAA, 0, 1, nil),
		testPacket(0xAAAA, 0, 2, nil),
		testPacket(0xBBBB, 0, 1, nil),
	}
	if err := s.SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	if got[aAddr] != 2 || got[bAddr] != 1 {
		t.Fatalf("session runs misrouted: %v", got)
	}
}

// TestUDPSendBatchLoopback sends a batch large enough to cross the
// sendmmsg chunk boundary through the real socket path and verifies a
// subscribed client receives every packet in order.
func TestUDPSendBatchLoopback(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClientSession(s.Addr(), 0xDF98, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.SessionSubscribers(0xDF98, 0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	const n = 150 // > 2 * mmsgChunk: exercises chunking on Linux
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = testPacket(0xDF98, 0, uint32(i+1), []byte(fmt.Sprintf("p%03d", i)))
	}
	if err := s.SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	expectPackets(t, c, batch)
}

// expectPackets drains c until it has delivered exactly want, in order.
func expectPackets(t *testing.T, c *UDPClient, want [][]byte) {
	t.Helper()
	var rb RecvBatch
	defer rb.Free()
	for got := 0; got < len(want); {
		if _, err := c.RecvBatch(&rb, 5*time.Second); err != nil {
			t.Fatalf("receive failed after %d of %d packets: %v", got, len(want), err)
		}
		for _, pkt := range rb.Packets() {
			if got == len(want) || !bytes.Equal(pkt, want[got]) {
				t.Fatalf("packet %d: got %q (reordered, corrupted or surplus)", got, pkt)
			}
			got++
		}
	}
}

// TestSendBatchIsolatesSubscriberErrors: one broken destination must not
// starve the other subscribers of the batch, and the error must still
// surface to the caller.
func TestSendBatchIsolatesSubscriberErrors(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := netip.MustParseAddrPort("127.0.0.1:19021")
	good := netip.MustParseAddrPort("127.0.0.1:19022")
	subscribeDirect(s, 0xDF98, 0, bad)
	subscribeDirect(s, 0xDF98, 0, good)
	goodGot := 0
	s.batchPortable = true
	s.writeOne = func(pkt []byte, to netip.AddrPort) error {
		if to == bad {
			return fmt.Errorf("destination unreachable")
		}
		goodGot++
		return nil
	}
	batch := [][]byte{
		testPacket(0xDF98, 0, 1, nil),
		testPacket(0xDF98, 0, 2, nil),
		testPacket(0xDF98, 0, 3, nil),
	}
	if err := s.SendBatch(0, batch); err == nil {
		t.Fatal("subscriber write failure not surfaced")
	}
	if goodGot != len(batch) {
		t.Fatalf("healthy subscriber got %d of %d packets", goodGot, len(batch))
	}
}

// TestSendBatchEmptyPackets: headerless and empty packets are documented
// valid input (they route to wildcard subscribers); the kernel batch path
// must carry them without panicking.
func TestSendBatchEmptyPackets(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := NewUDPClient(s.Addr(), 0) // wildcard subscription
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	batch := [][]byte{{}, []byte("short"), {}}
	if err := s.SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	expectPackets(t, c, batch)
}

// TestBusSendBatch: the in-proc bus must deliver a batch in order, one
// batch after another, and refuse an out-of-range layer.
func TestBusSendBatch(t *testing.T) {
	b := NewBus(2)
	var got []uint32
	cl := b.NewClient(1, nil, func(layer int, pkt []byte) {
		h, _, err := proto.ParseHeader(pkt)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, h.Serial)
	})
	defer cl.Close()
	batch := [][]byte{
		testPacket(1, 0, 10, nil),
		testPacket(1, 0, 11, nil),
		testPacket(1, 0, 12, nil),
	}
	if err := b.SendBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	if err := b.SendBatch(5, batch); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
	if err := b.SendBatch(0, [][]byte{testPacket(1, 0, 13, nil)}); err != nil {
		t.Fatal(err)
	}
	want := []uint32{10, 11, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}

	// The direct path — no fault process, no recorder — allocates nothing.
	quiet := NewBus(1)
	delivered := 0
	defer quiet.NewClient(0, nil, func(int, []byte) { delivered++ }).Close()
	if allocs := testing.AllocsPerRun(100, func() { quiet.SendBatch(0, batch) }); allocs != 0 {
		t.Fatalf("a plain bus delivery allocates %.1f times per batch", allocs)
	}
}
