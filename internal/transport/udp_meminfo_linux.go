//go:build linux && amd64

package transport

import (
	"errors"
	"syscall"
	"unsafe"
)

// soMeminfo is SO_MEMINFO (include/uapi/asm-generic/socket.h), which the
// syscall package's frozen table predates. It fills an array of u32
// counters indexed by the SK_MEMINFO_* constants below.
const soMeminfo = 55

const (
	skMeminfoRmemAlloc = 0
	skMeminfoRcvbuf    = 1
	skMeminfoDrops     = 8
	skMeminfoVars      = 9
)

// SocketStats reads the granted receive buffer, the bytes queued in it and
// the kernel's drop count for this client's socket.
func (c *UDPClient) SocketStats() (SocketStats, error) {
	if c.raw == nil {
		return SocketStats{}, errors.New("transport: socket stats: no raw socket")
	}
	var mem [skMeminfoVars]uint32
	size := uint32(unsafe.Sizeof(mem))
	var errno syscall.Errno
	if err := c.raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&mem[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil {
		return SocketStats{}, err
	}
	if errno != 0 {
		return SocketStats{}, errno
	}
	if size < uint32(unsafe.Sizeof(mem)) {
		return SocketStats{}, errors.New("transport: socket stats: kernel reports no drop count")
	}
	return SocketStats{
		Buffer: int(mem[skMeminfoRcvbuf]),
		Queued: int(mem[skMeminfoRmemAlloc]),
		Drops:  uint64(mem[skMeminfoDrops]),
	}, nil
}
