//go:build !(linux && amd64)

package transport

import "errors"

// SocketStats needs getsockopt(SO_MEMINFO), which only the linux/amd64
// build calls; elsewhere it reports an error.
func (c *UDPClient) SocketStats() (SocketStats, error) {
	return SocketStats{}, errors.New("transport: socket stats need linux/amd64")
}
