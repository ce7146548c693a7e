package session

import (
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

type discardOut struct{}

func (discardOut) Transmit([]byte, netapi.Addr) error { return nil }

// TestEmptySegmentReceiveAllocatesNothing pins the receive path of a
// zero-length data segment (what an empty Send produces) at zero heap
// allocations: the message the delivery pipeline needs for it comes from the
// loop's lists like every other payload.
func TestEmptySegmentReceiveAllocatesNothing(t *testing.T) {
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoveryNone
	s := newTestSession(t, spec, discardOut{})
	var loop wire.Cache
	s.state.Cache = &loop
	delivered := 0
	s.SetReceiver(func(d Delivery) {
		if d.Msg.Len() != 0 || !d.EOM {
			t.Fatalf("delivered %d bytes, eom %v; want an empty end of message", d.Msg.Len(), d.EOM)
		}
		delivered++
		loop.Messages().Release(d.Msg)
	})
	s.Accept()
	var seq uint32
	allocs := testing.AllocsPerRun(200, func() {
		p := loop.GetPDU()
		p.Type, p.Seq, p.Flags = wire.TData, seq, wire.FlagEOM
		seq++
		s.HandlePDU(p)
	})
	if delivered != int(seq) {
		t.Fatalf("%d of %d empty segments delivered", delivered, seq)
	}
	if allocs != 0 {
		t.Fatalf("receiving an empty segment: %v allocs/op, want 0", allocs)
	}
}
