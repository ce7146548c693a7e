//go:build !linux || 386

package udpnet

import "net"

// sockDrops reads 0: only linux reports a socket's kernel drops (see
// sockdrops_linux.go).
func sockDrops(*net.UDPConn) uint64 { return 0 }
