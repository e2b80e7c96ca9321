//go:build !(linux && amd64)

package transport

import "syscall"

// recvState exists only on platforms with a kernel batch-receive syscall;
// elsewhere the client's rmmsg field stays nil and empty.
type recvState struct{}

// enableGRO: there is no kernel batch read to coalesce into.
func enableGRO(syscall.RawConn) bool { return false }

// readBatch without a kernel batch syscall: the portable one-read
// fallback. Each call delivers a single datagram into the batch's first
// buffer — same API, same buffers, one syscall per packet.
func (c *UDPClient) readBatch(rb *RecvBatch) error {
	return c.readBatchPortable(rb)
}
