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
// One syscall carries up to mmsgChunk datagrams, so a 128-packet carousel
// round costs a subscriber 2 syscalls instead of 128.

// mmsgChunk is the most datagrams one sendmmsg call carries. 64 keeps the
// per-server header/iovec arrays a few KiB while amortizing the syscall ~60x.
const mmsgChunk = 64

// sysSendmmsg is the linux/amd64 sendmmsg(2) syscall number (the syscall
// package's frozen table predates it). The build tag pins the arch.
const sysSendmmsg = 307

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-written count
// of bytes sent for that message. Go pads the struct to the msghdr
// alignment, matching the kernel's array stride.
type mmsghdr struct {
	hdr   syscall.Msghdr
	nsent uint32
}

// sendState is the reusable sendmmsg machinery of one server, the send
// side's recvState: the sockaddr, iovec and mmsghdr arrays handed to the
// kernel, the chunk cursor and the RawConn callback. Declared per call they
// all escape (the callback is an interface argument, the arrays are reached
// through unsafe.Pointer) and every multi-packet batch costs ~5 KiB of heap;
// hoisted here and built once, the steady-state batch write allocates
// nothing. Guarded by UDPServer.sendMu, which SendBatch holds.
type sendState struct {
	sa    syscall.RawSockaddrInet4
	iovs  [mmsgChunk]syscall.Iovec
	msgs  [mmsgChunk]mmsghdr
	n     int // messages of the chunk in flight
	sent  int // of which the kernel has taken
	opErr error
	fn    func(fd uintptr) bool
}

func newSendState() *sendState {
	st := &sendState{}
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
			if errno != 0 {
				st.opErr = errno
				return true
			}
			if r1 == 0 {
				// Defensive: a zero-progress success would loop forever.
				st.opErr = syscall.EIO
				return true
			}
			// A UDP datagram sends whole or not at all, so only the
			// message count r1 advances the cursor (the per-message byte
			// counts in nsent carry nothing more).
			st.sent += int(r1)
		}
		return true
	}
	return st
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
	for lo := 0; lo < len(pkts); lo += mmsgChunk {
		n := min(mmsgChunk, len(pkts)-lo)
		for i := 0; i < n; i++ {
			pkt := pkts[lo+i]
			var base *byte
			if len(pkt) > 0 {
				base = &pkt[0] // nil base + zero len = valid empty datagram
			}
			st.iovs[i] = syscall.Iovec{Base: base, Len: uint64(len(pkt))}
			st.msgs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&st.sa)),
				Namelen: uint32(unsafe.Sizeof(st.sa)),
				Iov:     &st.iovs[i],
				Iovlen:  1,
			}}
		}
		st.n, st.sent, st.opErr = n, 0, nil
		if err := rc.Write(st.fn); err != nil {
			return err
		}
		if st.opErr != nil {
			return st.opErr
		}
	}
	return nil
}
