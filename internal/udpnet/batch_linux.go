//go:build linux && amd64

// Batch syscall backend: recvmmsg/sendmmsg through syscall.RawConn.
//
// golang.org/x/net/ipv4's ReadBatch/WriteBatch would be the stock way to
// reach these syscalls, but this module is dependency-free, so the two
// wrappers are issued directly with syscall.Syscall6 against the raw fd.
// The RawConn Read/Write callbacks integrate with the runtime poller:
// returning false on EAGAIN parks the goroutine until the socket is ready,
// exactly like the stock net.UDPConn paths, so blocking behavior and
// shutdown (Close unblocks the parked reader) are unchanged.
//
// The callbacks are bound once per rx/tx state object and communicate
// through fields rather than captured locals — a closure capturing locals
// would allocate per syscall and show up in the allocs/pkt budget.
//
// Scope: linux/amd64 only (syscall numbers and the Msghdr layout are
// arch-specific; SYS_SENDMMSG is not in the stdlib syscall table and is
// defined here). Other platforms fall back to batch_fallback.go.
package udpnet

import (
	"runtime"
	"syscall"
	"unsafe"
)

// sysSENDMMSG is the linux/amd64 sendmmsg(2) syscall number (the stdlib
// syscall package predates the syscall and never added it; SYS_RECVMMSG it
// does have).
const sysSENDMMSG uintptr = 307

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-written
// per-message byte count. On amd64 the struct is padded to 8-byte
// alignment.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// batchIO is the per-endpoint batch-syscall state.
type batchIO struct {
	rc syscall.RawConn
	tx *txState
}

func (b *batchIO) init(ep *Endpoint) error {
	rc, err := ep.sock.SyscallConn()
	if err != nil {
		return err
	}
	b.rc = rc
	b.tx = newTxState(ep.batch)
	return nil
}

// rxState is the reader's reusable recvmmsg scatter set: batch buffers of
// maxPacket bytes over one contiguous backing slab, with the iovec and
// mmsghdr arrays pre-wired so the steady-state read is zero-setup.
type rxState struct {
	bufs   [][]byte
	iov    []syscall.Iovec
	hdrs   []mmsghdr
	n      int
	operr  error
	readFn func(fd uintptr) bool
}

func (b *batchIO) newRxState(ep *Endpoint) *rxState {
	n := ep.batch
	rx := &rxState{
		bufs: make([][]byte, n),
		iov:  make([]syscall.Iovec, n),
		hdrs: make([]mmsghdr, n),
	}
	backing := make([]byte, n*maxPacket)
	for i := range rx.bufs {
		rx.bufs[i] = backing[i*maxPacket : (i+1)*maxPacket]
		rx.iov[i] = syscall.Iovec{Base: &rx.bufs[i][0], Len: maxPacket}
		rx.hdrs[i].hdr.Iov = &rx.iov[i]
		rx.hdrs[i].hdr.Iovlen = 1
	}
	rx.readFn = rx.doRead
	return rx
}

func (rx *rxState) slot(i int) []byte { return rx.bufs[i] }
func (rx *rxState) size(i int) int    { return int(rx.hdrs[i].msgLen) }

// readBatch reads up to len(rx.hdrs) datagrams with one recvmmsg, parking
// on the runtime poller while the socket is empty. It returns the number
// of datagrams filled, or the socket error once the endpoint closes.
func (ep *Endpoint) readBatch(rx *rxState) (int, error) {
	rx.n, rx.operr = 0, nil
	if err := ep.bio.rc.Read(rx.readFn); err != nil {
		return 0, err
	}
	return rx.n, rx.operr
}

func (rx *rxState) doRead(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&rx.hdrs[0])), uintptr(len(rx.hdrs)), 0, 0, 0)
		switch errno {
		case 0:
			rx.n = int(r1)
			return true
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false // park on the poller
		default:
			rx.operr = errno
			return true
		}
	}
}

// txState is the flush path's reusable sendmmsg gather set. It is only
// touched under the endpoint's sendMu (flushes are serialized), so one set
// per endpoint suffices.
type txState struct {
	iov   []syscall.Iovec
	hdrs  []mmsghdr
	names []syscall.RawSockaddrInet4
	pos   int // messages accepted by the kernel so far
	cnt   int // messages loaded into the arrays
	operr error
	wrFn  func(fd uintptr) bool
}

func newTxState(n int) *txState {
	tx := &txState{
		iov:   make([]syscall.Iovec, n),
		hdrs:  make([]mmsghdr, n),
		names: make([]syscall.RawSockaddrInet4, n),
	}
	tx.wrFn = tx.doWrite
	return tx
}

// writeBatch transmits the queued frames with as few sendmmsg calls as
// possible, preserving order. Called under sendMu.
func (ep *Endpoint) writeBatch(msgs []outMsg) (int, error) {
	tx := ep.bio.tx
	sent := 0
	for sent < len(msgs) {
		k := len(msgs) - sent
		if k > len(tx.hdrs) {
			k = len(tx.hdrs)
		}
		n, err := ep.sendmmsg(tx, msgs[sent:sent+k])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

func (ep *Endpoint) sendmmsg(tx *txState, msgs []outMsg) (int, error) {
	for i := range msgs {
		m := &msgs[i]
		tx.iov[i] = syscall.Iovec{Base: &m.frame[0], Len: uint64(len(m.frame))}
		na := &tx.names[i]
		*na = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: m.dst.ip4}
		// sin_port is stored in network byte order.
		p := (*[2]byte)(unsafe.Pointer(&na.Port))
		p[0] = byte(m.dst.prt >> 8)
		p[1] = byte(m.dst.prt)
		h := &tx.hdrs[i]
		h.hdr.Name = (*byte)(unsafe.Pointer(na))
		h.hdr.Namelen = syscall.SizeofSockaddrInet4
		h.hdr.Iov = &tx.iov[i]
		h.hdr.Iovlen = 1
		h.msgLen = 0
	}
	tx.pos, tx.cnt, tx.operr = 0, len(msgs), nil
	err := ep.bio.rc.Write(tx.wrFn)
	// The frame and sockaddr memory is referenced from the mmsghdr arrays
	// only as raw pointers; keep the Go-visible references alive across
	// the syscalls.
	runtime.KeepAlive(msgs)
	runtime.KeepAlive(tx)
	if err != nil {
		return tx.pos, err
	}
	return tx.pos, tx.operr
}

func (tx *txState) doWrite(fd uintptr) bool {
	for tx.pos < tx.cnt {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&tx.hdrs[tx.pos])), uintptr(tx.cnt-tx.pos), 0, 0, 0)
		switch errno {
		case 0:
			tx.pos += int(r1)
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false // park until the socket drains
		default:
			tx.operr = errno
			return true
		}
	}
	return true
}
