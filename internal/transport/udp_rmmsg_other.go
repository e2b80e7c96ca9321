//go:build !(linux && amd64)

package transport

// recvState exists only on platforms with a kernel batch-receive syscall;
// elsewhere the client's rmmsg field stays nil and empty.
type recvState struct{}

// readBatch without a kernel batch syscall: the portable one-read
// fallback. Each call delivers a single datagram into the batch's first
// buffer — same API, same buffers, one syscall per packet.
func (c *UDPClient) readBatch(rb *RecvBatch) error {
	return c.readBatchPortable(rb)
}
