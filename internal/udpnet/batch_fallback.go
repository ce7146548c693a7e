//go:build !(linux && amd64)

// Portable batch backend: the same readBatch/writeBatch shape as
// batch_linux.go, implemented over single-datagram socket calls for
// platforms without recvmmsg/sendmmsg (or where the syscall numbers and
// struct layouts haven't been wired up). Behavior is identical — batches
// of size one on receive, a write loop on flush — only the syscall
// amortization is lost.
package udpnet

type batchIO struct{}

func (b *batchIO) init(ep *Endpoint) error { return nil }

// rxState holds a single reusable receive buffer: every "batch" is one
// datagram.
type rxState struct {
	buf []byte
	n   int
}

func (b *batchIO) newRxState(ep *Endpoint) *rxState {
	return &rxState{buf: make([]byte, maxPacket)}
}

func (rx *rxState) slot(i int) []byte { return rx.buf }
func (rx *rxState) size(i int) int    { return rx.n }

func (ep *Endpoint) readBatch(rx *rxState) (int, error) {
	n, _, err := ep.sock.ReadFromUDPAddrPort(rx.buf)
	if err != nil {
		return 0, err
	}
	rx.n = n
	return 1, nil
}

// writeBatch sends the datagrams one WriteToUDPAddrPort at a time, in order.
func (ep *Endpoint) writeBatch(msgs []outMsg) (int, error) {
	for i := range msgs {
		if _, err := ep.sock.WriteToUDPAddrPort(msgs[i].frame, msgs[i].dst.ap); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}
