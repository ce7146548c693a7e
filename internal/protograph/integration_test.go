package protograph

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// pair is a two-host test rig with one stack per host.
type pair struct {
	k        *sim.Kernel
	net      *netsim.Network
	a, b     *Stack
	ab, ba   *netsim.Link
	received []byte
	msgs     int
	accepted *session.Session
}

func newPair(t *testing.T, link netsim.LinkConfig) *pair {
	t.Helper()
	k := sim.NewKernel(7)
	k.SetEventLimit(5_000_000)
	n := netsim.New(k)
	ha, hb := n.AddHost(), n.AddHost()
	ab, ba := n.NewLink(link), n.NewLink(link)
	n.SetRoute(ha.ID(), hb.ID(), ab)
	n.SetRoute(hb.ID(), ha.ID(), ba)
	sa, err := NewStack(Config{Provider: n, Host: ha.ID(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStack(Config{Provider: n, Host: hb.ID(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{k: k, net: n, a: sa, b: sb, ab: ab, ba: ba}
	if err := sb.Listen(80, &Listener{OnAccept: func(s *session.Session) {
		p.accepted = s
		s.SetReceiver(func(d session.Delivery) {
			p.received = append(p.received, d.Msg.Bytes()...)
			if d.EOM {
				p.msgs++
			}
			d.Msg.Release()
		})
	}}); err != nil {
		t.Fatal(err)
	}
	return p
}

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
}

// openAndTransfer opens a session with the given spec, sends payload, runs
// the simulation to quiescence, and returns the session.
func (p *pair) openAndTransfer(t *testing.T, spec mechanism.Spec, payload []byte) *session.Session {
	t.Helper()
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	if err := s.Send(payload); err != nil {
		t.Fatal(err)
	}
	p.k.RunUntil(30 * time.Second)
	return s
}

func TestExplicit2WayTransfer(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit2Way
	payload := bytes.Repeat([]byte("adaptive!"), 2000) // 18 KB, multiple segments
	s := p.openAndTransfer(t, spec, payload)
	if !s.Established() {
		t.Fatal("session not established")
	}
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("received %d bytes, want %d; content mismatch=%v",
			len(p.received), len(payload), !bytes.Equal(p.received, payload))
	}
	if p.msgs != 1 {
		t.Fatalf("EOM count = %d", p.msgs)
	}
}

func TestExplicit3WayTransfer(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit3Way
	payload := bytes.Repeat([]byte("3way"), 500)
	s := p.openAndTransfer(t, spec, payload)
	if !s.Established() || !p.accepted.Established() {
		t.Fatal("both sides should be established")
	}
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("received %d of %d bytes", len(p.received), len(payload))
	}
}

func TestImplicitTransferNoHandshakeRTT(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnImplicit
	var firstDelivery time.Duration
	done := false
	payload := []byte("request")
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	// Wrap the listener's receiver timing through a fresh listener port.
	p.b.Unlisten(80)
	p.b.Listen(80, &Listener{OnAccept: func(ps *session.Session) {
		ps.SetReceiver(func(d session.Delivery) {
			if !done {
				firstDelivery = p.k.Now()
				done = true
			}
			d.Msg.Release()
		})
	}})
	s.Send(payload)
	p.k.RunUntil(time.Second)
	if !done {
		t.Fatal("implicit data never delivered")
	}
	// One-way delay is ~1ms prop + serialization; no handshake RTT first.
	if firstDelivery > 3*time.Millisecond {
		t.Fatalf("implicit first delivery at %v — smells like a handshake happened", firstDelivery)
	}
	// The passive session must have adopted the sender's spec.
	if p.b.Sessions()[0].Spec().Recovery != spec.Recovery {
		t.Fatal("piggybacked spec not applied")
	}
}

func TestNegotiationAdjustsSpec(t *testing.T) {
	p := newPair(t, fastLink())
	// Receiver clamps the window to 4 PDUs and forces go-back-n: the
	// active side must adopt the adjusted Spec from the CONNACK.
	p.b.Unlisten(80)
	p.b.Listen(80, &Listener{
		Adjust: func(proposed *mechanism.Spec, _ netapi.Addr) *mechanism.Spec {
			adj := *proposed
			adj.WindowSize = 4
			adj.Recovery = mechanism.RecoveryGoBackN
			return &adj
		},
		OnAccept: func(s *session.Session) {
			s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
		},
	})
	spec := mechanism.DefaultSpec()
	spec.WindowSize = 64
	spec.Recovery = mechanism.RecoverySelectiveRepeat
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	s.Send(bytes.Repeat([]byte("n"), 40*1024))
	p.k.RunUntil(20 * time.Second)
	if got := s.Spec(); got.WindowSize != 4 || got.Recovery != mechanism.RecoveryGoBackN {
		t.Fatalf("active side spec after negotiation: %v", got)
	}
	if s.CurrentSlots().Recovery.Name() != "go-back-n" {
		t.Fatalf("active side recovery mechanism = %s", s.CurrentSlots().Recovery.Name())
	}
	if s.State().SndUna != s.State().SndNxt {
		t.Fatal("transfer did not complete under adjusted spec")
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	for _, rec := range []mechanism.RecoveryKind{mechanism.RecoveryGoBackN, mechanism.RecoverySelectiveRepeat, mechanism.RecoveryFECHybrid} {
		rec := rec
		t.Run(rec.String(), func(t *testing.T) {
			link := fastLink()
			link.DropRate = 0.05
			p := newPair(t, link)
			spec := mechanism.DefaultSpec()
			spec.Recovery = rec
			payload := bytes.Repeat([]byte("R"), 200*1024) // 200 KB
			s := p.openAndTransfer(t, spec, payload)
			if !bytes.Equal(p.received, payload) {
				t.Fatalf("%v: received %d of %d bytes intact=%v",
					rec, len(p.received), len(payload), bytes.Equal(p.received, payload))
			}
			if s.State().Retransmissions == 0 && rec != mechanism.RecoveryFECHybrid {
				t.Fatalf("%v: no retransmissions under 5%% loss", rec)
			}
		})
	}
}

func TestBERCorruptionRecovered(t *testing.T) {
	link := fastLink()
	link.BER = 1e-5 // roughly 10% packet corruption at 1400-byte PDUs
	p := newPair(t, link)
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoverySelectiveRepeat
	payload := bytes.Repeat([]byte("B"), 100*1024)
	p.openAndTransfer(t, spec, payload)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("received %d of %d bytes", len(p.received), len(payload))
	}
	if p.a.Stats().DecodeErrors+p.b.Stats().DecodeErrors == 0 {
		t.Fatal("BER produced no checksum rejections — detection not exercised")
	}
}

func TestFECLossTolerantDeliversWithGaps(t *testing.T) {
	link := fastLink()
	link.DropRate = 0.15
	p := newPair(t, link)
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoveryFEC
	spec.LossTolerant = true
	spec.Graceful = false
	spec.GapDeadline = 20 * time.Millisecond
	payload := bytes.Repeat([]byte("F"), 100*1024)
	s := p.openAndTransfer(t, spec, payload)
	if s.State().Retransmissions != 0 {
		t.Fatal("loss-tolerant FEC retransmitted")
	}
	if len(p.received) == 0 {
		t.Fatal("nothing delivered")
	}
	rx := p.accepted.State()
	if rx.FECRecovered == 0 {
		t.Fatal("FEC recovered nothing despite 15% loss")
	}
	// Delivery should be substantial: FEC repairs singles, deadline skips
	// the rest.
	if len(p.received) < len(payload)*70/100 {
		t.Fatalf("delivered only %d of %d bytes", len(p.received), len(payload))
	}
}

// TestSegueGBNtoSRMidTransferNoLoss switches both ends to selective repeat in
// mid-transfer: from go-back-N over a lossy link, and from no recovery at all
// over a clean one (nothing can repair what was lost before the segue).
func TestSegueGBNtoSRMidTransferNoLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		from mechanism.RecoveryKind
		drop float64
	}{
		{"GoBackN", mechanism.RecoveryGoBackN, 0.03},
		{"None", mechanism.RecoveryNone, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			link := fastLink()
			link.DropRate = tc.drop
			p := newPair(t, link)
			spec := mechanism.DefaultSpec()
			spec.Recovery = tc.from
			payload := bytes.Repeat([]byte("S"), 300*1024)
			s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
			if err != nil {
				t.Fatal(err)
			}
			s.Open()
			s.Send(payload)
			p.k.Schedule(80*time.Millisecond, func() {
				ns := *s.Spec()
				ns.Recovery = mechanism.RecoverySelectiveRepeat
				s.ApplySpec(&ns)
				rs := *p.accepted.Spec()
				rs.Recovery = mechanism.RecoverySelectiveRepeat
				p.accepted.ApplySpec(&rs)
			})
			p.k.RunUntil(60 * time.Second)
			if !bytes.Equal(p.received, payload) {
				t.Fatalf("segue lost data: received %d of %d intact=%v",
					len(p.received), len(payload), bytes.Equal(p.received, payload))
			}
			if s.Segues == 0 || p.accepted.Segues == 0 {
				t.Fatal("segue did not happen")
			}
		})
	}
}

func TestGracefulCloseDeliversEverything(t *testing.T) {
	link := fastLink()
	link.DropRate = 0.05
	p := newPair(t, link)
	spec := mechanism.DefaultSpec()
	payload := bytes.Repeat([]byte("G"), 50*1024)
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	s.Send(payload)
	s.Close() // graceful: drains first
	p.k.RunUntil(30 * time.Second)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("graceful close lost data: %d of %d", len(p.received), len(payload))
	}
	if !s.Closed() {
		t.Fatal("session never closed")
	}
	if !p.accepted.Closed() {
		t.Fatal("peer never learned of the close")
	}
}

func TestStopAndWaitWorks(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.Window = mechanism.WindowStopAndWait
	payload := bytes.Repeat([]byte("W"), 20*1024)
	p.openAndTransfer(t, spec, payload)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("stop-and-wait: %d of %d", len(p.received), len(payload))
	}
}

func TestRatePacingLimitsThroughput(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.RateBps = 1e6                             // 1 Mbps pacing on a 10 Mbps link
	payload := bytes.Repeat([]byte("P"), 125*1024) // 1 Mbit
	start := p.k.Now()
	s := p.openAndTransfer(t, spec, payload)
	_ = s
	elapsed := p.k.Now() - start
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("paced transfer incomplete: %d of %d", len(p.received), len(payload))
	}
	// 1 Mbit at 1 Mbps ≈ 1s minimum (payload only; overhead adds more).
	if elapsed < 900*time.Millisecond {
		t.Fatalf("1 Mbit at 1 Mbps finished in %v — pacing ineffective", elapsed)
	}
}

func TestUnreliableTransferOnCleanLink(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoveryNone
	spec.Order = mechanism.OrderNone
	spec.ConnMgmt = mechanism.ConnImplicit
	spec.Graceful = false
	payload := bytes.Repeat([]byte("U"), 64*1024)
	s := p.openAndTransfer(t, spec, payload)
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("clean-link datagram transfer: %d of %d", len(p.received), len(payload))
	}
	// No acks should have flowed.
	if s.State().Retransmissions != 0 {
		t.Fatal("unreliable mode retransmitted")
	}
}

func TestLayerInsertionAndRemoval(t *testing.T) {
	p := newPair(t, fastLink())
	dropped := 0
	p.a.InsertLayer(&fnLayer{name: "droplayer", out: func([]byte) ([]byte, bool) { dropped++; return nil, false }})
	if got := p.a.Layers(); len(got) != 1 || got[0] != "droplayer" {
		t.Fatalf("layers: %v", got)
	}
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnImplicit
	s, _, _ := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	s.Open()
	s.Send([]byte("blocked"))
	p.k.RunUntil(50 * time.Millisecond)
	if len(p.received) != 0 {
		t.Fatal("drop layer leaked a packet")
	}
	if !p.a.RemoveLayer("droplayer") {
		t.Fatal("RemoveLayer failed")
	}
	p.k.RunUntil(10 * time.Second)
	if string(p.received) != "blocked" {
		t.Fatalf("after layer removal got %q", p.received)
	}
	if dropped == 0 {
		t.Fatal("layer never saw traffic")
	}
}

func TestHandshakeRetriesSurviveLoss(t *testing.T) {
	link := fastLink()
	link.DropRate = 0.4
	p := newPair(t, link)
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit3Way
	payload := []byte("eventually")
	s := p.openAndTransfer(t, spec, payload)
	if !s.Established() {
		t.Fatal("handshake never completed under 40% loss")
	}
	if !bytes.Equal(p.received, payload) {
		t.Fatalf("got %q", p.received)
	}
}

func TestManySessionsDemux(t *testing.T) {
	p := newPair(t, fastLink())
	per := map[uint32][]byte{}
	p.b.Unlisten(80)
	p.b.Listen(80, &Listener{OnAccept: func(s *session.Session) {
		id := s.ConnID()
		s.SetReceiver(func(d session.Delivery) {
			per[id] = append(per[id], d.Msg.Bytes()...)
			d.Msg.Release()
		})
	}})
	var sessions []*session.Session
	for i := 0; i < 10; i++ {
		spec := mechanism.DefaultSpec()
		s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), uint16(2000+i), 80)
		if err != nil {
			t.Fatal(err)
		}
		s.Open()
		s.Send([]byte(fmt.Sprintf("session-%d", i)))
		sessions = append(sessions, s)
	}
	p.k.RunUntil(10 * time.Second)
	if len(per) != 10 {
		t.Fatalf("%d passive sessions, want 10", len(per))
	}
	for i, s := range sessions {
		want := fmt.Sprintf("session-%d", i)
		if string(per[s.ConnID()]) != want {
			t.Fatalf("session %d delivered %q", i, per[s.ConnID()])
		}
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	// Full duplex on one connection: both sides send concurrently, data
	// and acknowledgments share the session in both directions.
	link := fastLink()
	link.DropRate = 0.02
	p := newPair(t, link)
	var a2b, b2a []byte
	payloadA := bytes.Repeat([]byte("A->B"), 20000)
	payloadB := bytes.Repeat([]byte("B->A"), 15000)
	p.b.Unlisten(80)
	p.b.Listen(80, &Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) {
			a2b = append(a2b, d.Msg.Bytes()...)
			d.Msg.Release()
		})
		s.Send(payloadB)
	}})
	spec := mechanism.DefaultSpec()
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReceiver(func(d session.Delivery) {
		b2a = append(b2a, d.Msg.Bytes()...)
		d.Msg.Release()
	})
	s.Open()
	s.Send(payloadA)
	p.k.RunUntil(2 * time.Minute)
	if !bytes.Equal(a2b, payloadA) {
		t.Fatalf("A->B delivered %d of %d", len(a2b), len(payloadA))
	}
	if !bytes.Equal(b2a, payloadB) {
		t.Fatalf("B->A delivered %d of %d", len(b2a), len(payloadB))
	}
}

func TestBERCorruptionWithCkNoneReachesApp(t *testing.T) {
	// Loss-tolerant media may disable the checksum (voice with ck=none):
	// corrupted payloads then reach the application instead of counting
	// as loss — the trade DeriveSCS makes deliberately.
	link := fastLink()
	link.BER = 3e-5
	p := newPair(t, link)
	spec := mechanism.DefaultSpec()
	spec.Checksum = wire.CkNone
	spec.Recovery = mechanism.RecoveryNone
	spec.Order = mechanism.OrderNone
	spec.ConnMgmt = mechanism.ConnImplicit
	spec.Graceful = false
	payload := bytes.Repeat([]byte{0x55}, 200*1024)
	p.openAndTransfer(t, spec, payload)
	// A corrupted bit can land in a header and strand that PDU, so allow
	// a small shortfall; the point is corrupted *payloads* flow through.
	if len(p.received) < len(payload)*95/100 {
		t.Fatalf("ck=none lost data: %d of %d", len(p.received), len(payload))
	}
	if len(p.received) != len(payload) {
		t.Logf("note: %d bytes stranded by header corruption", len(payload)-len(p.received))
	}
	if bytes.Equal(p.received, payload) {
		t.Fatal("BER 3e-5 corrupted nothing across 200 KB — model inert")
	}
	// Without a checksum only structural header damage (version nibble,
	// length field) is detectable; that must stay rare.
	if errs := p.b.Stats().DecodeErrors; errs > 3 {
		t.Fatalf("ck=none rejected %d packets — checksum still active?", errs)
	}
}

func TestDecodeErrorsCounted(t *testing.T) {
	p := newPair(t, fastLink())
	// Inject garbage directly at B's endpoint via a raw send from A.
	raw, _ := p.net.Open(p.net.Host(1).ID(), 9999)
	raw.Send([]byte("garbage-not-a-pdu-at-all-padpadpad"), p.b.LocalAddr())
	p.k.Run()
	if p.b.Stats().DecodeErrors != 1 {
		t.Fatalf("decode errors = %d", p.b.Stats().DecodeErrors)
	}
}
