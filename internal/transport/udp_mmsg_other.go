//go:build !(linux && amd64)

package transport

import "net/netip"

// sendState exists only on platforms with a kernel batch-send syscall;
// elsewhere the server's mmsg field stays nil and empty.
type sendState struct{}

// writeBatchTo without a kernel batch syscall: the portable per-datagram
// write loop. The buffers are still encoded once and written as-is.
func (s *UDPServer) writeBatchTo(pkts [][]byte, to netip.AddrPort) error {
	return s.writePortable(pkts, to)
}
