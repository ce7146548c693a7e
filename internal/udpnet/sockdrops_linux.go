//go:build linux && !386

// Kernel receive drops: getsockopt(SOL_SOCKET, SO_MEMINFO) copies out the
// socket's sk_meminfo array, whose SK_MEMINFO_DROPS slot counts the datagrams
// the kernel dropped on the socket — chiefly ones that found its receive
// buffer full. linux/386 has no getsockopt system call (it multiplexes
// socketcall), so it reads 0 like every other platform (sockdrops_other.go).
package udpnet

import (
	"net"
	"syscall"
	"unsafe"
)

const (
	soMeminfo      = 55 // SO_MEMINFO: the same number on every linux GOARCH
	skMeminfoDrops = 8  // SK_MEMINFO_DROPS
	skMeminfoVars  = 9  // SK_MEMINFO_VARS: the array's length
)

// sockDrops reads how many datagrams the kernel has dropped on sock; 0 when
// the read fails.
func sockDrops(sock *net.UDPConn) uint64 {
	rc, err := sock.SyscallConn()
	if err != nil {
		return 0
	}
	var mi [skMeminfoVars]uint32
	n := uint32(unsafe.Sizeof(mi))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.SOL_SOCKET, soMeminfo,
			uintptr(unsafe.Pointer(&mi)), uintptr(unsafe.Pointer(&n)), 0)
	}); err != nil || errno != 0 {
		return 0
	}
	return uint64(mi[skMeminfoDrops])
}
