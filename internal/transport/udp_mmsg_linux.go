//go:build linux && amd64

package transport

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// The per-subscriber batch write on Linux uses sendmmsg(2) directly — the
// same coalescing golang.org/x/net's ipv4.PacketConn.WriteBatch performs,
// done via the standard library so the repository stays dependency-free.
// One syscall carries up to mmsgChunk messages. Where the kernel offers UDP
// generic segmentation offload (GSO), a message carries a whole run of
// equal-length datagrams under a UDP_SEGMENT control message: the run goes
// down the UDP/IP stack once and is cut into datagrams below it — on
// loopback, for a client that set UDP_GRO, not at all.

// mmsgChunk is the most messages one sendmmsg call carries. 64 keeps the
// per-server header/iovec arrays a few KiB while amortizing the syscall ~60x.
const mmsgChunk = 64

// mmsgDatagrams is the most datagrams one sendmmsg call carries: the size
// of the iovec array, one iovec per datagram. Four full runs, so one call
// takes a whole service batch (maxBatch = 128) of wire packets.
const mmsgDatagrams = 4 * maxRun

// gsoMaxBytes is the most bytes one GSO message carries: the largest IPv4
// UDP payload, 65 535 less the 20-byte IP and 8-byte UDP headers.
const gsoMaxBytes = 65507

// sysSendmmsg is the linux/amd64 sendmmsg(2) syscall number (the syscall
// package's frozen table predates it). The build tag pins the arch.
const sysSendmmsg = 307

// udpSegment is UDP_SEGMENT (include/uapi/linux/udp.h), which the syscall
// package's frozen table predates: as a socket option its getsockopt is the
// GSO probe, as a control message it carries a run's segment size.
const udpSegment = 103

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-written count
// of bytes sent for that message. Go pads the struct to the msghdr
// alignment, matching the kernel's array stride.
type mmsghdr struct {
	hdr   syscall.Msghdr
	nsent uint32
}

// segCmsg is one UDP_SEGMENT control message, padded to CMSG_SPACE(2).
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// sendState is the reusable sendmmsg machinery of one server, the send
// side's recvState: the sockaddr, iovec, mmsghdr and control-message arrays
// handed to the kernel, the message cursor and the RawConn callback.
// Declared per call they all escape (the callback is an interface argument,
// the arrays are reached through unsafe.Pointer) and every multi-packet
// batch costs ~5 KiB of heap; hoisted here and built once, the steady-state
// batch write allocates nothing. Guarded by UDPServer.sendMu, which
// SendBatch holds.
type sendState struct {
	sa   syscall.RawSockaddrInet4
	iovs [mmsgDatagrams]syscall.Iovec
	msgs [mmsgChunk]mmsghdr
	segs [mmsgChunk]segCmsg
	// first[m] is the index, in the pkts of the call, of message m's first
	// datagram; first[n] is the number of datagrams the call carries.
	first [mmsgChunk + 1]int
	n     int // messages of the call in flight
	sent  int // of which the kernel has taken
	// refused: the kernel refused message msgs[sent], a run of several
	// datagrams, as one GSO send.
	refused bool
	opErr   error
	fn      func(fd uintptr) bool
}

func newSendState() *sendState {
	st := &sendState{}
	for i := range st.segs {
		st.segs[i].hdr = syscall.Cmsghdr{
			Len:   syscall.SizeofCmsghdr + 2, // CMSG_LEN(2): the kernel wants it exact
			Level: syscall.IPPROTO_UDP,
			Type:  udpSegment,
		}
	}
	st.fn = func(fd uintptr) bool {
		for st.sent < st.n {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&st.msgs[st.sent])), uintptr(st.n-st.sent), 0, 0, 0)
			if errno == syscall.EAGAIN {
				return false // socket buffer full: wait for writability
			}
			if errno == syscall.EINTR {
				continue
			}
			if gsoRefusal(errno) && st.first[st.sent+1]-st.first[st.sent] > 1 {
				st.refused = true
				return true
			}
			if errno != 0 {
				st.opErr = errno
				return true
			}
			if r1 == 0 {
				// Defensive: a zero-progress success would loop forever.
				st.opErr = syscall.EIO
				return true
			}
			// A UDP message sends whole or not at all, so only the
			// message count r1 advances the cursor (the per-message byte
			// counts in nsent carry nothing more).
			st.sent += int(r1)
		}
		return true
	}
	return st
}

// gsoRefusal reports whether errno, returned for a message that carries a
// run, is how the kernel refuses GSO on a route: EINVAL for a segment past
// the route's MTU or a socket with SO_NO_CHECK (EMSGSIZE, in some kernels,
// for the former), EIO for an IPsec route. Sent one datagram per message,
// the run goes through, or fails as it would have without GSO.
func gsoRefusal(errno syscall.Errno) bool {
	return errno == syscall.EINVAL || errno == syscall.EMSGSIZE || errno == syscall.EIO
}

// fill lays the head of pkts out as the messages of one sendmmsg call, at
// most mmsgChunk messages and mmsgDatagrams datagrams. With gso, a message
// carries a run — datagrams of one length — of at most maxRun datagrams
// and gsoMaxBytes bytes, under a UDP_SEGMENT control message naming that
// length. A run of one, or an empty datagram (which no run can carry),
// goes bare.
func (st *sendState) fill(pkts [][]byte, gso bool) {
	d, m := 0, 0
	for m < mmsgChunk && d < len(pkts) && d < mmsgDatagrams {
		st.first[m] = d
		seg := len(pkts[d])
		end := d + 1
		if gso && seg > 0 {
			limit := min(len(pkts), d+maxRun, mmsgDatagrams)
			total := seg
			for end < limit && len(pkts[end]) == seg && total+seg <= gsoMaxBytes {
				total += seg
				end++
			}
		}
		for i := d; i < end; i++ {
			var base *byte
			if len(pkts[i]) > 0 {
				base = &pkts[i][0] // nil base + zero len = valid empty datagram
			}
			st.iovs[i] = syscall.Iovec{Base: base, Len: uint64(len(pkts[i]))}
		}
		st.msgs[m] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.sa)),
			Namelen: uint32(unsafe.Sizeof(st.sa)),
			Iov:     &st.iovs[d],
			Iovlen:  uint64(end - d),
		}}
		if end-d > 1 {
			st.segs[m].size = uint16(seg)
			st.msgs[m].hdr.Control = (*byte)(unsafe.Pointer(&st.segs[m]))
			st.msgs[m].hdr.Controllen = uint64(unsafe.Sizeof(st.segs[m]))
		}
		d, m = end, m+1
	}
	st.first[m] = d
	st.n = m
}

// probeGSO reports whether the kernel offers UDP GSO on the socket: a
// kernel without it (before 4.18) refuses getsockopt(UDP_SEGMENT).
func probeGSO(rc syscall.RawConn) bool {
	if rc == nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		_, serr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err != nil {
		return false
	}
	return serr == nil
}

// writeBatchTo coalesces the batch into sendmmsg calls when the socket and
// destination are plain IPv4 (the substrate's common case); other
// combinations take the portable per-datagram loop. Packet buffers are
// handed to the kernel in place — no copies on the fan-out path.
func (s *UDPServer) writeBatchTo(pkts [][]byte, to netip.AddrPort) error {
	rc := s.rawConn
	if rc == nil || s.batchPortable || !s.v4Socket || !to.Addr().Is4() || len(pkts) == 1 {
		return s.writePortable(pkts, to)
	}
	st := s.mmsg
	if st == nil {
		st = newSendState()
		s.mmsg = st
	}
	st.sa.Family = syscall.AF_INET
	port := to.Port()
	st.sa.Port = port<<8 | port>>8 // network byte order
	st.sa.Addr = to.Addr().As4()
	for len(pkts) > 0 {
		st.fill(pkts, s.gso)
		st.sent, st.refused, st.opErr = 0, false, nil
		if err := rc.Write(st.fn); err != nil {
			return err
		}
		if st.refused {
			// The kernel refused a run as one GSO send (a segment past
			// the route's MTU, say). It would refuse every run to come,
			// so GSO is off for this server, and the batch resumes at
			// that run, one datagram per message.
			s.gso = false
			pkts = pkts[st.first[st.sent]:]
			continue
		}
		if st.opErr != nil {
			return st.opErr
		}
		pkts = pkts[st.first[st.n]:]
	}
	return nil
}
