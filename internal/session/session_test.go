package session

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/order"
	"adaptive/internal/reliable"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
	"adaptive/internal/xmit"
)

// loopOut records transmitted packets and can deliver them to a peer
// session (a zero-latency wire).
type loopOut struct {
	pkts [][]byte
	peer *Session
	drop func(i int) bool // optional per-packet drop decision
	n    int
}

func (l *loopOut) Transmit(pkt []byte, dst netapi.Addr) error {
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	l.pkts = append(l.pkts, cp)
	i := l.n
	l.n++
	if l.drop != nil && l.drop(i) {
		return nil
	}
	if l.peer != nil {
		pdu := wire.GetPDU()
		if err := wire.DecodeInto(cp, pdu); err == nil {
			l.peer.HandlePDU(pdu)
		} else {
			wire.PutPDU(pdu)
		}
	}
	return nil
}

// decodeHeader parses a captured packet and returns its header.
func decodeHeader(t *testing.T, pkt []byte) wire.Header {
	t.Helper()
	var p wire.PDU
	if err := wire.DecodeInto(pkt, &p); err != nil {
		t.Fatal(err)
	}
	p.ReleasePayload()
	return p.Header
}

func buildSlots(spec *mechanism.Spec) Slots {
	var rec mechanism.Recovery
	switch spec.Recovery {
	case mechanism.RecoveryGoBackN:
		rec = reliable.NewGoBackN()
	case mechanism.RecoveryNone:
		rec = reliable.NewNone()
	case mechanism.RecoveryFEC:
		rec = reliable.NewFEC(false)
	case mechanism.RecoveryFECHybrid:
		rec = reliable.NewFEC(true)
	default:
		rec = reliable.NewSelectiveRepeat()
	}
	var ord mechanism.Orderer
	if spec.Order == mechanism.OrderSequenced {
		ord = order.NewSequenced(1024)
	} else {
		ord = order.NewUnordered(256)
	}
	var cm mechanism.ConnManager
	switch spec.ConnMgmt {
	case mechanism.ConnExplicit2Way:
		cm = connStub{} // session tests use an always-open stub
	default:
		cm = connStub{}
	}
	var rate mechanism.Rate = xmit.NoRate{}
	if spec.RateBps > 0 {
		rate = xmit.NewGapRate(spec.RateBps)
	}
	return Slots{
		Conn:     cm,
		Window:   xmit.NewFixedWindow(spec.WindowSize),
		Rate:     rate,
		Recovery: rec,
		Orderer:  ord,
	}
}

// connStub is an always-established connection manager.
type connStub struct{}

func (connStub) Name() string                        { return "stub" }
func (connStub) StartActive(mechanism.Env)           {}
func (connStub) StartPassive(mechanism.Env)          {}
func (connStub) OnPDU(mechanism.Env, *wire.PDU) bool { return false }
func (connStub) Established() bool                   { return true }
func (connStub) Piggyback(mechanism.Env) []byte      { return nil }
func (connStub) Close(e mechanism.Env, graceful bool) {
	e.Notify(mechanism.Notification{Kind: mechanism.NoteClosed})
}
func (connStub) Abort(e mechanism.Env, why string) {
	e.Notify(mechanism.Notification{Kind: mechanism.NoteClosed, Detail: why})
}
func (connStub) Closed() bool { return false }

func newTestSession(t *testing.T, spec mechanism.Spec, out Outbound) *Session {
	t.Helper()
	spec.Normalize()
	k := sim.NewKernel(1)
	net := netsim.New(k)
	sp := spec
	return New(Params{
		ConnID: 7, LocalPort: 1, PeerPort: 2,
		PeerNet: netapi.Addr{Host: 9, Port: 7700},
		Spec:    &sp,
		Slots:   buildSlots(&sp),
		Factory: func(s *mechanism.Spec) (Slots, error) { return buildSlots(s), nil },
		Clock:   net.Clock(),
		Timers:  event.NewManager(net.Clock()),
		Rand:    rand.New(rand.NewSource(1)),
		Out:     out,
	})
}

func TestSendSegmentsToMSS(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 350))
	if len(out.pkts) != 4 {
		t.Fatalf("%d packets for 350 B at MSS 100", len(out.pkts))
	}
	if decodeHeader(t, out.pkts[3]).Flags&wire.FlagEOM == 0 {
		t.Fatal("final segment lacks EOM")
	}
	if decodeHeader(t, out.pkts[0]).Flags&wire.FlagEOM != 0 {
		t.Fatal("first segment has EOM")
	}
}

// TestSendOwnsOneBufferPerSegment pins who owns what from Send on. Accepted
// data sits in the queue as one pooled buffer per segment — unshared, with
// header and trailer room of its own, so wire.EncodeTo builds every
// transmission of it in place — whether it came as bytes or as a message
// (SendMessage: same segmenter, the message released), and refused data costs
// nothing: the state check comes before the first allocation.
func TestSendOwnsOneBufferPerSegment(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	const mss = 100
	long := make([]byte, 5*mss+1)
	for i := range long {
		long[i] = byte(i)
	}
	refused := make([]byte, 256<<10) // beyond every pool class: plain heap if allocated
	for _, tc := range []struct {
		name  string
		end   func(*Session) // nil: the session stays open, behind a closed window
		data  []byte
		asMsg bool  // hand the data in as a message
		lens  []int // queued segment lengths
		err   error
	}{
		{"five segments and a byte", nil, long, false, []int{mss, mss, mss, mss, mss, 1}, nil},
		{"the same as a message", nil, long, true, []int{mss, mss, mss, mss, mss, 1}, nil},
		{"empty message", nil, nil, false, []int{0}, nil},
		{"closed", (*Session).Close, refused, false, nil, errClosed},
		{"retired", (*Session).Retire, refused, false, nil, ErrMigrated},
		{"closed, as a message", (*Session).Close, long, true, nil, errClosed},
	} {
		start := message.Outstanding()
		spec := mechanism.DefaultSpec()
		spec.MSS = mss
		s := newTestSession(t, spec, &loopOut{})
		s.Open()
		s.State().PeerAdvert = 0
		if tc.end != nil {
			tc.end(s)
		}
		var err error
		if tc.asMsg {
			err = s.SendMessage(message.PooledFromBytes(tc.data))
		} else if tc.end == nil {
			err = s.Send(tc.data)
		} else if allocs := testing.AllocsPerRun(10, func() { err = s.Send(tc.data) }); allocs != 0 {
			t.Errorf("%s: refused Send: %v allocs/op, want 0", tc.name, allocs)
		}
		if err != tc.err {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.err)
		}
		if s.QueuedSegments() != len(tc.lens) {
			t.Fatalf("%s: %d segments queued, want %d", tc.name, s.QueuedSegments(), len(tc.lens))
		}
		var got []byte
		for i, q := range s.sendQ[s.sendQH:] {
			m := q.msg
			if m.Len() != tc.lens[i] || q.eom != (i == len(tc.lens)-1) {
				t.Errorf("%s: segment %d: len %d eom %v", tc.name, i, m.Len(), q.eom)
			}
			if m.Refs() != 1 || m.Headroom() < wire.HeaderLen || m.Tailroom() < wire.TrailerLen {
				t.Errorf("%s: segment %d: refs %d headroom %d tailroom %d: not encodable in place",
					tc.name, i, m.Refs(), m.Headroom(), m.Tailroom())
			}
			got = append(got, m.Bytes()...)
		}
		if tc.err == nil && !bytes.Equal(got, tc.data) {
			t.Errorf("%s: queued bytes differ from the input", tc.name)
		}
		if held := message.Outstanding() - start; held != int64(len(tc.lens)) {
			t.Errorf("%s: %d pooled buffers held for %d queued segments", tc.name, held, len(tc.lens))
		}
		s.Abort("test over") // the terminal transition releases the queue
		if got := message.Outstanding(); got != start {
			t.Errorf("%s: %d pooled buffers outstanding after the session ended, %d before it", tc.name, got, start)
		}
	}
}

func TestWindowGatesPump(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.WindowSize = 2
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 1000))
	if len(out.pkts) != 2 {
		t.Fatalf("window 2 emitted %d packets", len(out.pkts))
	}
	if s.QueuedSegments() != 8 {
		t.Fatalf("queued %d", s.QueuedSegments())
	}
	// An ack opens the window.
	s.HandlePDU(&wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 2, Window: 64}})
	if len(out.pkts) != 4 {
		t.Fatalf("after ack: %d packets", len(out.pkts))
	}
}

func TestPeerAdvertisementGates(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.WindowSize = 50
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 400))
	// Peer advertises zero window.
	s.HandlePDU(&wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 4, Window: 0}})
	s.Send(make([]byte, 400))
	if len(out.pkts) != 4 {
		t.Fatalf("sent %d packets into a zero window", len(out.pkts))
	}
	s.HandlePDU(&wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 4, Window: 8}})
	if len(out.pkts) != 8 {
		t.Fatalf("window reopen emitted %d", len(out.pkts))
	}
}

func TestLoopbackTransferWithLoss(t *testing.T) {
	spec := mechanism.DefaultSpec()
	spec.MSS = 200
	outA := &loopOut{}
	outB := &loopOut{}
	a := newTestSession(t, spec, outA)
	b := newTestSession(t, spec, outB)
	outA.peer, outB.peer = b, a
	outA.drop = func(i int) bool { return i%7 == 3 } // deterministic loss

	var got []byte
	b.SetReceiver(func(d Delivery) {
		got = append(got, d.Msg.Bytes()...)
		d.Msg.Release()
	})
	a.Open()
	b.Accept()
	payload := bytes.Repeat([]byte("0123456789"), 500)
	a.Send(payload)
	// Drive retransmission timers.
	k := simKernelOf(a)
	k.RunUntil(time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d", len(got), len(payload))
	}
	if a.State().Retransmissions == 0 {
		t.Fatal("no retransmissions under deterministic loss")
	}
}

// simKernelOf digs the kernel back out of the session's clock for test
// driving.
func simKernelOf(s *Session) *sim.Kernel {
	return s.clock.(netsim.Clock).Kernel()
}

func TestSegueWindowPreservesFlow(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.WindowSize = 1
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 500))
	if len(out.pkts) != 1 {
		t.Fatalf("window 1 emitted %d", len(out.pkts))
	}
	if !s.SegueWindow(xmit.NewFixedWindow(10)) {
		t.Fatal("segue refused")
	}
	if len(out.pkts) != 5 {
		t.Fatalf("after window segue: %d packets", len(out.pkts))
	}
	if s.Segues != 1 {
		t.Fatalf("segues %d", s.Segues)
	}
}

func TestSegueRefusedWhenStatic(t *testing.T) {
	out := &loopOut{}
	s := newTestSession(t, mechanism.DefaultSpec(), out)
	s.SetReconfigurable(false)
	if s.SegueWindow(xmit.NewFixedWindow(10)) {
		t.Fatal("static session accepted segue")
	}
	if s.SegueRecovery(reliable.NewGoBackN()) {
		t.Fatal("static session accepted recovery segue")
	}
	if s.SegueRate(xmit.NewGapRate(1e6)) || s.SegueOrderer(order.NewUnordered(8)) {
		t.Fatal("static session accepted rate/order segue")
	}
	if s.Segues != 0 {
		t.Fatal("segue counted despite refusal")
	}
}

func TestApplySpecSeguesOnlyChangedSlots(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	s := newTestSession(t, spec, out)
	s.Open()

	ns := *s.Spec()
	ns.Recovery = mechanism.RecoveryGoBackN
	s.ApplySpec(&ns)
	if s.CurrentSlots().Recovery.Name() != "go-back-n" {
		t.Fatal("recovery not re-synthesized")
	}
	if s.Segues != 1 {
		t.Fatalf("segues %d, want only the recovery slot", s.Segues)
	}

	// Rate parameter tweak: no segue, just SetRate.
	ns2 := *s.Spec()
	ns2.RateBps = 0 // unchanged (already 0) -> nothing at all
	s.ApplySpec(&ns2)
	if s.Segues != 1 {
		t.Fatal("no-op ApplySpec segued")
	}
}

func TestApplySpecRateTweakNoSegue(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.RateBps = 1e6
	s := newTestSession(t, spec, out)
	// Replace the NoRate stub with a real pacer for this test.
	s.slots.Rate = xmit.NewGapRate(1e6)
	ns := *s.Spec()
	ns.RateBps = 2e6
	s.ApplySpec(&ns)
	if s.Segues != 0 {
		t.Fatal("rate parameter change segued")
	}
	if s.slots.Rate.RateBps() != 2e6 {
		t.Fatalf("rate not retuned: %v", s.slots.Rate.RateBps())
	}
}

func TestSegueOrdererFlushes(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	s := newTestSession(t, spec, out)
	var got []string
	s.SetReceiver(func(d Delivery) {
		got = append(got, string(d.Msg.Bytes()))
		d.Msg.Release()
	})
	// Hold something back in the sequencer: deliver seq 1 while 0 is
	// missing (inject via the recovery path around the engine).
	seq := s.slots.Orderer
	_ = seq
	s.releaseData(1, msgFrom("late"), true)
	if len(got) != 0 {
		t.Fatal("sequencer did not hold")
	}
	s.SegueOrderer(order.NewUnordered(8))
	if len(got) != 1 || got[0] != "late" {
		t.Fatalf("segue flushed %v", got)
	}
}

func msgFrom(s string) *message.Message { return message.NewFromBytes([]byte(s)) }

func TestCloseUnreliableImmediate(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoveryNone
	spec.Graceful = false
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send([]byte("fire and forget"))
	s.Close()
	var notes int
	s.SetNotifier(func(n mechanism.Notification) { notes++ })
	if err := s.Send([]byte("after close")); err == nil {
		t.Fatal("send after close accepted")
	}
}

func TestMulticastSuppressesSenderState(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.Multicast = true
	spec.Recovery = mechanism.RecoveryFEC
	spec.Order = mechanism.OrderNone
	spec.Graceful = false
	spec.MSS = 100
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 1000))
	if s.State().InFlight() != 0 {
		t.Fatal("multicast sender kept an ack-driven buffer")
	}
	if s.State().SndUna != s.State().SndNxt {
		t.Fatal("multicast sender window stuck")
	}
	// Receiver side: acks are suppressed in multicast mode.
	rspec := spec
	r := newTestSession(t, rspec, &loopOut{})
	r.Accept()
	r.HandlePDU(&wire.PDU{Header: wire.Header{Type: wire.TData, Seq: 0, Flags: wire.FlagMcast}})
	rOut := r.out.(*loopOut)
	for _, pkt := range rOut.pkts {
		if decodeHeader(t, pkt).Type == wire.TAck {
			t.Fatal("multicast receiver acked (implosion)")
		}
	}
}

func TestImplicitConfigStrippedOnDuplicate(t *testing.T) {
	// A duplicated first PDU re-carries the config blob; the receive path
	// must strip it both times.
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	s := newTestSession(t, spec, out)
	var got []string
	s.SetReceiver(func(d Delivery) {
		got = append(got, string(d.Msg.Bytes()))
		d.Msg.Release()
	})
	blob := mechanism.EncodeSpec(&spec)
	mk := func() *wire.PDU {
		body := append(append([]byte{}, blob...), []byte("data!")...)
		p := &wire.PDU{
			Header:  wire.Header{Type: wire.TData, Seq: 0, Flags: wire.FlagImplicitCfg | wire.FlagEOM, Aux: uint16(len(blob))},
			Payload: message.NewFromBytes(body),
		}
		return p
	}
	s.Accept()
	s.HandlePDU(mk())
	s.HandlePDU(mk()) // duplicate
	if len(got) != 1 || got[0] != "data!" {
		t.Fatalf("delivered %v", got)
	}
}

func TestAccessorsAndEnv(t *testing.T) {
	out := &loopOut{}
	s := newTestSession(t, mechanism.DefaultSpec(), out)
	if s.ConnID() != 7 || s.LocalPort() != 1 {
		t.Fatalf("identity %d/%d", s.ConnID(), s.LocalPort())
	}
	if s.PeerAddr().Host != 9 {
		t.Fatalf("peer %v", s.PeerAddr())
	}
	if !s.Reconfigurable() {
		t.Fatal("sessions default reconfigurable")
	}
	if !s.Established() || s.Closed() {
		t.Fatal("stub conn state wrong")
	}
	if s.MetricSink() == nil {
		t.Fatal("nil metric sink")
	}
	s.SetMetricSink(nil) // must substitute a no-op, not store nil
	if s.MetricSink() == nil {
		t.Fatal("SetMetricSink(nil) stored nil")
	}
	e := s.env()
	if e.ConnID() != 7 {
		t.Fatal("env identity mismatch")
	}
	if e.Timers() != s.timers || e.Rand() != s.rng {
		t.Fatal("env plumbing mismatch")
	}
	e.Pump() // no queued data: must be a safe no-op
}

func TestEnvSkipToDrainsOrderer(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	s := newTestSession(t, spec, out)
	var got []uint32
	s.SetReceiver(func(d Delivery) {
		got = append(got, d.Seq)
		d.Msg.Release()
	})
	s.releaseData(2, msgFrom("c"), true) // held: gap at 0,1
	s.env().SkipTo(2)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("SkipTo released %v", got)
	}
}

func TestApplySpecFactoryFailureKeepsOldSlots(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	s := newTestSession(t, spec, out)
	s.factory = func(sp *mechanism.Spec) (Slots, error) {
		return Slots{}, errClosed // any error
	}
	before := s.CurrentSlots().Recovery
	ns := *s.Spec()
	ns.Recovery = mechanism.RecoveryGoBackN
	s.ApplySpec(&ns)
	if s.CurrentSlots().Recovery != before {
		t.Fatal("failed synthesis replaced slots")
	}
	if s.Segues != 0 {
		t.Fatal("failed synthesis counted a segue")
	}
}

func TestApplySpecRateEnableDisable(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec() // unpaced
	s := newTestSession(t, spec, out)
	// 0 -> paced: needs a real segue (NoRate has no SetRate effect).
	ns := *s.Spec()
	ns.RateBps = 1e6
	s.ApplySpec(&ns)
	if s.CurrentSlots().Rate.RateBps() != 1e6 {
		t.Fatalf("rate after enable %v", s.CurrentSlots().Rate.RateBps())
	}
	if s.Segues != 1 {
		t.Fatalf("segues %d", s.Segues)
	}
	// paced -> 0: segue back to NoRate.
	ns2 := *s.Spec()
	ns2.RateBps = 0
	s.ApplySpec(&ns2)
	if s.CurrentSlots().Rate.RateBps() != 0 {
		t.Fatal("rate not disabled")
	}
}

func TestGracefulCloseWaitsForDrain(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.WindowSize = 8
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 500)) // 5 segments, all in flight
	s.Close()
	// Data is still unacknowledged; close must not have fired yet. The
	// connStub Close() notifies NoteClosed when invoked.
	var closed bool
	s.SetNotifier(func(n mechanism.Notification) {
		if n.Kind == mechanism.NoteClosed {
			closed = true
		}
	})
	if closed {
		t.Fatal("graceful close fired before drain")
	}
	// Ack everything: drain completes, close proceeds.
	s.HandlePDU(&wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 5, Window: 64}})
	if !closed {
		t.Fatal("close never completed after drain")
	}
}
