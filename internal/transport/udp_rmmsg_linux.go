//go:build linux && amd64

package transport

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// The batched read on Linux uses recvmmsg(2) directly, mirroring the send
// side's sendmmsg: one syscall drains up to recvMsgs queued messages into
// the batch's own buffers. With UDP_GRO set on the socket, the kernel
// queues a run that arrived coalesced (a GSO send, on loopback) as one
// message and names its segment size in a control message; readBatch cuts
// the message back into its datagrams. Done via the standard library's
// RawConn so the repository stays dependency-free and the netpoller still
// handles blocking, deadlines (os.ErrDeadlineExceeded) and close
// (net.ErrClosed).

// sysRecvmmsg is the linux/amd64 recvmmsg(2) syscall number (the syscall
// package's frozen table predates it). The build tag pins the arch.
const sysRecvmmsg = 299

// udpGRO is UDP_GRO (include/uapi/linux/udp.h), which the syscall package's
// frozen table predates: set as a socket option, the kernel delivers
// coalesced runs whole; received as a control message, it carries the
// run's segment size.
const udpGRO = 104

// groCmsg is one UDP_GRO control message, CMSG_SPACE(4) bytes.
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

// recvState is the reusable recvmmsg machinery of one client: the sender
// address, iovec, mmsghdr and control-message arrays handed to the kernel
// and the RawConn callback. All of it would escape to the heap if declared
// per call (the callback is an interface argument), so one readBatch would
// cost ~3 allocations; hoisted here and built once, the steady-state batch
// read allocates nothing.
// Guarded by the client's single-reader receive discipline.
type recvState struct {
	names [recvMsgs]syscall.RawSockaddrInet6 // msg_name: large enough for either family
	iovs  [recvMsgs]syscall.Iovec
	msgs  [recvMsgs]mmsghdr
	ctrl  [recvMsgs]groCmsg
	got   int
	opErr error
	fn    func(fd uintptr) bool
}

func newRecvState() *recvState {
	st := &recvState{}
	st.fn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&st.msgs[0])), recvMsgs, 0, 0, 0)
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

// enableGRO sets UDP_GRO on the socket and reports whether the kernel took
// it: one before 5.0 refuses the option.
func enableGRO(rc syscall.RawConn) bool {
	if rc == nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
	}); err != nil {
		return false
	}
	return serr == nil
}

// readBatch fills rb with up to recvMsgs messages in one recvmmsg call,
// waiting on the netpoller until at least one message (or the read
// deadline) arrives. Buffers are filled in place — no copies on the
// receive path. The kernel writes each message's sender into msg_name,
// which attributes every datagram of the message to a mirror or marks
// them all stray.
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
	for i, buf := range rb.bufs {
		st.iovs[i] = syscall.Iovec{Base: &buf[0], Len: uint64(len(buf))}
		st.msgs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &st.iovs[i],
			Iovlen:  1,
		}}
		if c.gro {
			st.msgs[i].hdr.Control = (*byte)(unsafe.Pointer(&st.ctrl[i]))
			st.msgs[i].hdr.Controllen = uint64(unsafe.Sizeof(st.ctrl[i]))
		}
	}
	st.got, st.opErr = 0, nil
	rerr := rc.Read(st.fn)
	if rerr != nil {
		return rerr
	}
	if st.opErr != nil {
		return st.opErr
	}
	for i := 0; i < st.got; i++ {
		// nsent is the kernel-written message length (msg_len), and
		// Controllen what it wrote of the control buffer: a UDP_GRO
		// message, or nothing for a message that is one datagram.
		seg := 0
		if cm := &st.ctrl[i]; st.msgs[i].hdr.Controllen >= syscall.SizeofCmsghdr+4 &&
			cm.hdr.Level == syscall.IPPROTO_UDP && cm.hdr.Type == udpGRO {
			seg = int(cm.size)
		}
		c.accept(rb, rb.bufs[i][:st.msgs[i].nsent], seg, sockaddrKey(&st.names[i]))
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
