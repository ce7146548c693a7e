package protograph

import (
	"runtime"
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/wire"
)

// TestProposedMSSIsClamped: a listener runs the session it spawns on the
// peer's proposal, and FEC allocates 2+MSS bytes per parity group. One
// 211-byte implicit-config FEC data PDU proposing MSS 2^32-1 could make the
// listener allocate 4 GiB; the proposal is clamped to mechanism.MaxMSS.
func TestProposedMSSIsClamped(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt, spec.Recovery, spec.LossTolerant = mechanism.ConnImplicit, mechanism.RecoveryFEC, true
	spec.MSS = 1<<32 - 1
	blob := mechanism.EncodeSpec(&spec)
	const connID = 0x5eed
	pdu := &wire.PDU{
		Header: wire.Header{Type: wire.TData, Flags: wire.FlagImplicitCfg | wire.FlagEOM,
			SrcPort: 1000, DstPort: 80, ConnID: connID, Aux: uint16(len(blob))},
		Payload: message.NewFromBytes(append(blob, "hello"...)),
	}
	var pkt []byte
	wire.EncodeTo(pdu, wire.CkCRC32, func(b []byte) error { pkt = append([]byte(nil), b...); return nil })
	pdu.ReleasePayload()
	if len(pkt) != 211 {
		t.Fatalf("the test datagram is %d bytes, want 211", len(pkt))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.b.onPacket(pkt, p.a.LocalAddr())
	runtime.ReadMemStats(&after)
	s := p.b.Session(connID)
	if s == nil || string(p.received) != "hello" {
		t.Fatalf("the datagram did not open a session and deliver (session %v, delivered %q)", s, p.received)
	}
	if got := s.Spec().MSS; got != mechanism.MaxMSS {
		t.Errorf("accepted session runs MSS %d, want it clamped to %d", got, mechanism.MaxMSS)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("accepting a %d-byte datagram allocated %d bytes", len(pkt), grew)
	}
}
