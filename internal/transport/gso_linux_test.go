//go:build linux && amd64

package transport

import (
	"bytes"
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/proto"
)

// TestGSOGROFollowProbes: the server sends runs (GSO) exactly where the
// kernel answers getsockopt(UDP_SEGMENT) on its socket, and the client cuts
// runs apart (GRO) exactly where the kernel takes UDP_GRO on a fresh
// socket, with the option read back set on the client's own; where both
// hold, a batch crosses loopback as one kernel message. The log names what
// was used.
func TestGSOGROFollowProbes(t *testing.T) {
	const session = 0x650
	srvs, c := mirrorClient(t, session, 1, 1)
	s := srvs[0]
	t.Logf("server GSO %v, client GRO %v", s.gso, c.gro)
	var segErr error
	if err := s.rawConn.Control(func(fd uintptr) {
		_, segErr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err != nil {
		t.Fatal(err)
	}
	if (segErr == nil) != s.gso {
		t.Fatalf("getsockopt(UDP_SEGMENT): %v, but the server's GSO is %v", segErr, s.gso)
	}
	fresh, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	rc, err := fresh.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var setErr error
	if err := rc.Control(func(fd uintptr) {
		setErr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if (setErr == nil) != c.gro {
		t.Fatalf("setsockopt(UDP_GRO) on a fresh socket: %v, but the client's GRO is %v", setErr, c.gro)
	}
	var gro int
	var groErr error
	if err := c.raw.Control(func(fd uintptr) {
		gro, groErr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO)
	}); err != nil {
		t.Fatal(err)
	}
	if (groErr == nil && gro != 0) != c.gro {
		t.Fatalf("getsockopt(UDP_GRO) = %d, %v, but the client's GRO is %v", gro, groErr, c.gro)
	}
	pkts := make([][]byte, 2*recvMsgs)
	for i := range pkts {
		pkts[i] = testPacket(session, 0, uint32(i+1), bytes.Repeat([]byte{byte(i)}, 200))
	}
	if err := s.SendBatch(0, pkts); err != nil {
		t.Fatal(err)
	}
	var rb RecvBatch
	defer rb.Free()
	n, err := c.RecvBatch(&rb, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// recvMsgs messages hold more than recvMsgs datagrams only if a
	// message carried a run.
	if coalesced := n > recvMsgs; coalesced != (s.gso && c.gro) {
		t.Fatalf("a run of %d came out as a first fill of %d (GSO %v, GRO %v)", len(pkts), n, s.gso, c.gro)
	}
}

// TestGSOFallbackOnEINVAL: a kernel that refuses a run as one GSO send
// loses no datagram of it. SO_NO_CHECK on the server's socket makes the
// kernel refuse every run with EINVAL (GSO needs the checksum it
// offloads). Every datagram of the batch still arrives, in order; the
// server stops segmenting, so the next batch goes one datagram per
// message; and Traffic still counts datagrams.
func TestGSOFallbackOnEINVAL(t *testing.T) {
	const session = 0x651
	srvs, c := mirrorClient(t, session, 1, 1)
	s := srvs[0]
	if !s.gso {
		t.Skip("the kernel offers no UDP GSO: nothing to refuse")
	}
	var serr error
	if err := s.rawConn.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}
	var rb RecvBatch
	defer rb.Free()
	serial := uint32(0)
	for b := range 2 {
		pkts := make([][]byte, 100)
		for i := range pkts {
			serial++
			pkts[i] = testPacket(session, 0, serial, bytes.Repeat([]byte{byte(serial)}, 500))
		}
		if err := s.SendBatch(0, pkts); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if s.gso {
			t.Fatalf("batch %d: the server still segments after the kernel refused a run", b)
		}
		for got := 0; got < len(pkts); {
			n, err := c.RecvBatch(&rb, 2*time.Second)
			if err != nil {
				t.Fatalf("batch %d: %d of %d datagrams arrived: %v", b, got, len(pkts), err)
			}
			if c.gro && n > recvMsgs {
				t.Fatalf("batch %d: a fill of %d datagrams from %d messages: a run went segmented", b, n, recvMsgs)
			}
			for _, pkt := range rb.Packets() {
				if !bytes.Equal(pkt, pkts[got]) {
					t.Fatalf("batch %d: datagram %d lost, reordered or corrupted", b, got)
				}
				got++
			}
		}
	}
	if pk, _ := s.Traffic(); pk != uint64(serial) {
		t.Fatalf("Traffic counts %d datagrams, want %d", pk, serial)
	}
}

// gsoSend sends msg from conn to to as one message the kernel cuts every
// seg bytes, the way a GSO sender's run leaves.
func gsoSend(t *testing.T, conn *net.UDPConn, to netip.AddrPort, msg []byte, seg int) {
	t.Helper()
	cm := segCmsg{
		hdr:  syscall.Cmsghdr{Len: syscall.SizeofCmsghdr + 2, Level: syscall.IPPROTO_UDP, Type: udpSegment},
		size: uint16(seg),
	}
	oob := unsafe.Slice((*byte)(unsafe.Pointer(&cm)), unsafe.Sizeof(cm))
	if _, _, err := conn.WriteMsgUDPAddrPort(msg, oob, to); err != nil {
		t.Fatal(err)
	}
}

// TestRecvBatchSplitsCoalesced: one client socket on three mirrors, two
// servers and a bare socket that sends its own GSO message. Each mirror's
// run of ten comes out whole and in order, every datagram attributed to
// that mirror; with GRO each run is one kernel message, so one fill
// returns it all, and the bare socket's run ends in a shorter datagram, as
// the kernel allows. A run from a server that is no mirror is dropped, one
// stray counted per datagram.
func TestRecvBatchSplitsCoalesced(t *testing.T) {
	const session = 0xF415
	srvs, addrs := startServers(t, 2, 1)
	if !srvs[0].gso {
		t.Skip("the kernel offers no UDP GSO: no run to split")
	}
	bare, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	c, err := NewUDPClientSession(append(addrs, bare.LocalAddr().(*net.UDPAddr)), session, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, s := range srvs {
		waitSubs(t, func() bool { return s.SessionSubscribers(session, 0) == 1 }, "the subscription")
	}
	// run is ten datagrams from mirror src, the last one's payload cut to
	// last bytes.
	run := func(src, last int) [][]byte {
		pkts := make([][]byte, 10)
		for i := range pkts {
			payload := bytes.Repeat([]byte{byte(src<<4 | i)}, 300)
			if i == len(pkts)-1 {
				payload = payload[:last]
			}
			h := proto.Header{Index: uint32(src), Serial: uint32(i + 1), Session: session}
			pkts[i] = append(h.Marshal(nil), payload...)
		}
		return pkts
	}
	var rb RecvBatch
	defer rb.Free()
	expect := func(src int, want [][]byte) {
		t.Helper()
		for got := 0; got < len(want); {
			n, err := c.RecvBatch(&rb, 5*time.Second)
			if err != nil {
				t.Fatalf("mirror %d: after %d of %d packets: %v", src, got, len(want), err)
			}
			if c.gro && n != len(want) {
				t.Fatalf("mirror %d: a run of %d came out as a fill of %d", src, len(want), n)
			}
			for i, pkt := range rb.Packets() {
				if !bytes.Equal(pkt, want[got]) {
					t.Fatalf("mirror %d: packet %d: %d bytes differ from the %d sent",
						src, got, len(pkt), len(want[got]))
				}
				if rb.Source(i) != src {
					t.Fatalf("mirror %d's packet %d attributed to mirror %d", src, got, rb.Source(i))
				}
				got++
			}
		}
	}
	for _, src := range []int{1, 0} {
		want := run(src, 300)
		if err := srvs[src].SendBatch(0, want); err != nil {
			t.Fatal(err)
		}
		expect(src, want)
	}
	want := run(2, 77)
	to := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), c.conn.LocalAddr().(*net.UDPAddr).AddrPort().Port())
	gsoSend(t, bare, to, bytes.Join(want, nil), len(want[0]))
	expect(2, want)

	stranger, err := NewUDPServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	subscribeDirect(stranger, session, 0, seenAs(stranger, c))
	forged := run(0, 300)
	if err := stranger.SendBatch(0, forged); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvBatch(&rb, 200*time.Millisecond); err != ErrTimeout {
		t.Fatalf("a stranger's run alone: %v, want ErrTimeout", err)
	}
	if got := c.rxStray.Load(); got != uint64(len(forged)) {
		t.Fatalf("a stranger's run of %d counted %d stray", len(forged), got)
	}
}
