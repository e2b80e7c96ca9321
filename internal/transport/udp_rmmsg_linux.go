//go:build linux && amd64

package transport

import (
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

// recvState is the reusable recvmmsg machinery of one client: the iovec
// and mmsghdr arrays handed to the kernel and the RawConn callback. All of
// it would escape to the heap if declared per call (the callback is an
// interface argument), so one readBatch would cost ~3 allocations; hoisted
// here and built once, the steady-state batch read allocates nothing.
// Guarded by the client's single-reader receive discipline.
type recvState struct {
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
// receive path. The source address is not collected: a client socket is
// connected to one server's traffic by its subscription, and the packet
// header carries everything routing needs.
func (c *UDPClient) readBatch(rb *RecvBatch) (int, error) {
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
		st.msgs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: &st.iovs[i], Iovlen: 1}}
	}
	st.n, st.got, st.opErr = n, 0, nil
	rerr := rc.Read(st.fn)
	if rerr != nil {
		return 0, rerr
	}
	if st.opErr != nil {
		return 0, st.opErr
	}
	for i := 0; i < st.got; i++ {
		// nsent is the kernel-written datagram length (msg_len).
		rb.pkts = append(rb.pkts, rb.bufs[i][:st.msgs[i].nsent])
	}
	return st.got, nil
}
