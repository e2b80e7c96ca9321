//go:build linux && amd64

package transport

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// The batched read on Linux uses recvmmsg(2) directly, mirroring the send
// side's sendmmsg: one syscall drains up to recvChunk queued datagrams
// into the batch's own buffers. Done via the standard library's
// RawConn so the repository stays dependency-free and the netpoller still
// handles blocking, deadlines (os.ErrDeadlineExceeded) and close
// (net.ErrClosed).

// sysRecvmmsg is the linux/amd64 recvmmsg(2) syscall number (the syscall
// package's frozen table predates it). The build tag pins the arch.
const sysRecvmmsg = 299

// recvState is the reusable recvmmsg machinery of one client: the sender
// address, iovec and mmsghdr arrays handed to the kernel and the RawConn
// callback. All of it would escape to the heap if declared per call (the
// callback is an interface argument), so one readBatch would cost ~3
// allocations; hoisted here and built once, the steady-state batch read
// allocates nothing.
// Guarded by the client's single-reader receive discipline.
type recvState struct {
	names [recvChunk]syscall.RawSockaddrInet6 // msg_name: large enough for either family
	iovs  [recvChunk]syscall.Iovec
	msgs  [recvChunk]mmsghdr
	n     int
	got   int
	opErr error
	fn    func(fd uintptr) bool
}

func newRecvState() *recvState {
	st := &recvState{}
	st.fn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&st.msgs[0])), uintptr(st.n), 0, 0, 0)
			if errno == syscall.EAGAIN {
				return false // nothing queued: wait for readability
			}
			if errno == syscall.EINTR {
				continue
			}
			if errno != 0 {
				st.opErr = errno
				return true
			}
			st.got = int(r1)
			return true
		}
	}
	return st
}

// readBatch fills rb with up to recvChunk datagrams in one recvmmsg call,
// waiting on the netpoller until at least one datagram (or the read
// deadline) arrives. Buffers are filled in place — no copies on the
// receive path. The kernel writes each datagram's sender into msg_name,
// which attributes it to a mirror or marks it stray.
func (c *UDPClient) readBatch(rb *RecvBatch) error {
	rc := c.raw
	if rc == nil {
		return c.readBatchPortable(rb)
	}
	st := c.rmmsg
	if st == nil {
		st = newRecvState()
		c.rmmsg = st
	}
	n := len(rb.bufs)
	if n > recvChunk {
		n = recvChunk
	}
	for i := 0; i < n; i++ {
		buf := rb.bufs[i]
		st.iovs[i] = syscall.Iovec{Base: &buf[0], Len: uint64(len(buf))}
		st.msgs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &st.iovs[i],
			Iovlen:  1,
		}}
	}
	st.n, st.got, st.opErr = n, 0, nil
	rerr := rc.Read(st.fn)
	if rerr != nil {
		return rerr
	}
	if st.opErr != nil {
		return st.opErr
	}
	for i := 0; i < st.got; i++ {
		// nsent is the kernel-written datagram length (msg_len).
		c.accept(rb, i, int(st.msgs[i].nsent), sockaddrKey(&st.names[i]))
	}
	return nil
}

// sockaddrKey reads a kernel-written sender address in mirrorKey form; an
// address of neither family is the zero AddrPort, which matches no mirror.
func sockaddrKey(sa *syscall.RawSockaddrInet6) netip.AddrPort {
	port := uint16(sa.Port&0xff)<<8 | uint16(sa.Port>>8) // network byte order
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}
