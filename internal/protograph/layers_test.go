package protograph

import (
	"bytes"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/session"
)

// fnLayer is the tests' protocol-graph element: a name and one function per
// direction (nil passes the packet through).
type fnLayer struct {
	name    string
	out, in func(pkt []byte) ([]byte, bool)
}

func (l *fnLayer) Name() string { return l.name }
func (l *fnLayer) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	if l.out == nil {
		return pkt, true
	}
	return l.out(pkt)
}
func (l *fnLayer) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	if l.in == nil {
		return pkt, true
	}
	return l.in(pkt)
}

// lossLayer drops every nth outbound packet and counts the drops.
func lossLayer(n int, dropped *int) *fnLayer {
	count := 0
	return &fnLayer{name: "loss", out: func(pkt []byte) ([]byte, bool) {
		if count++; count%n == 0 {
			*dropped++
			return nil, false
		}
		return pkt, true
	}}
}

func TestXorLayerMismatchIsLoss(t *testing.T) {
	p := newPair(t, fastLink())
	// The sender whitens every packet and the receiver has no matching
	// layer: every packet fails checksum.
	p.a.InsertLayer(&fnLayer{name: "xor", out: func(pkt []byte) ([]byte, bool) {
		out := bytes.Clone(pkt)
		for i := range out {
			out[i] ^= 0xff
		}
		return out, true
	}})
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnImplicit
	spec.Graceful = false
	s, _, _ := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	s.Open()
	s.Send([]byte("garbled"))
	p.k.RunUntil(500 * time.Millisecond)
	if len(p.received) != 0 {
		t.Fatal("mismatched key still delivered data")
	}
	if p.b.Stats().DecodeErrors == 0 {
		t.Fatal("whitened packets not rejected by checksum")
	}
}

func TestLossLayerDeterministicFaultInjection(t *testing.T) {
	p := newPair(t, fastLink())
	dropped := 0
	p.a.InsertLayer(lossLayer(5, &dropped))
	spec := mechanism.DefaultSpec()
	payload := bytes.Repeat([]byte("L"), 100*1024)
	s := p.openAndTransfer(t, spec, payload)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("reliable transfer did not survive 20%% injected loss: %d of %d", len(p.received), len(payload))
	}
	if dropped == 0 {
		t.Fatal("loss layer dropped nothing")
	}
	if s.State().Retransmissions == 0 {
		t.Fatal("no retransmissions despite injected loss")
	}
}

func TestLayerOrderingOutermostLast(t *testing.T) {
	// Layers apply outbound in insertion order and inbound in reverse.
	p := newPair(t, fastLink())
	var outOrder, inOrder []string
	for _, name := range []string{"inner", "outer"} {
		p.a.InsertLayer(&fnLayer{name: name,
			out: func(pkt []byte) ([]byte, bool) { outOrder = append(outOrder, name); return pkt, true },
			in:  func(pkt []byte) ([]byte, bool) { inOrder = append(inOrder, name); return pkt, true },
		})
	}
	spec := mechanism.DefaultSpec()
	payload := []byte("ordering")
	p.openAndTransfer(t, spec, payload)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("layer composition broke transfer: %q", p.received)
	}
	if len(outOrder) < 2 || outOrder[0] != "inner" || outOrder[1] != "outer" {
		t.Fatalf("outbound order %v, want inner then outer", outOrder)
	}
	if len(inOrder) < 2 || inOrder[0] != "outer" || inOrder[1] != "inner" {
		t.Fatalf("inbound order %v, want outer then inner", inOrder)
	}
}

func TestRemoveLayerMidSession(t *testing.T) {
	p := newPair(t, fastLink())
	dropped := 0
	p.a.InsertLayer(lossLayer(2, &dropped))
	spec := mechanism.DefaultSpec()
	s, _, _ := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	s.Open()
	s.Send(bytes.Repeat([]byte("R"), 40*1024))
	p.k.RunUntil(200 * time.Millisecond)
	// Pull the fault injector; the transfer must then finish cleanly.
	if !p.a.RemoveLayer("loss") {
		t.Fatal("RemoveLayer failed")
	}
	p.k.RunUntil(time.Minute)
	if len(p.received) != 40*1024 {
		t.Fatalf("transfer stuck after layer removal: %d", len(p.received))
	}
}

func TestListenerPortConflict(t *testing.T) {
	p := newPair(t, fastLink())
	if err := p.b.Listen(80, &Listener{}); err == nil {
		t.Fatal("double listen on port 80 accepted")
	}
	p.b.Unlisten(80)
	if err := p.b.Listen(80, &Listener{OnAccept: func(s *session.Session) {}}); err != nil {
		t.Fatalf("relisten after unlisten: %v", err)
	}
}

func TestUnmatchedControlPDUCounted(t *testing.T) {
	p := newPair(t, fastLink())
	// An ACK for a nonexistent connection has no listener path.
	spec := mechanism.DefaultSpec()
	s, _, _ := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 9999)
	s.Open() // CONNREQ to a port nobody listens on
	p.k.RunUntil(5 * time.Second)
	if p.b.Stats().UnmatchedPDUs == 0 {
		t.Fatal("orphan handshake not counted as unmatched")
	}
	if s.Established() {
		t.Fatal("established against a dead port")
	}
}
