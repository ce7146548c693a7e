package protograph

import (
	"math/rand"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// wiretap is a pass-through layer that keeps a copy of every packet it sees,
// by direction.
type wiretap struct{ in, out [][]byte }

func (w *wiretap) Name() string { return "wiretap" }
func (w *wiretap) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	w.out = append(w.out, append([]byte(nil), pkt...))
	return pkt, true
}
func (w *wiretap) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	w.in = append(w.in, append([]byte(nil), pkt...))
	return pkt, true
}

// first returns the first captured packet of the given type carrying all of
// flags, decoded for its header only.
func first(t *testing.T, pkts [][]byte, typ wire.Type, flags uint8) []byte {
	t.Helper()
	for _, pkt := range pkts {
		var p wire.PDU
		if err := wire.DecodeInto(pkt, &p); err != nil {
			t.Fatal(err)
		}
		p.ReleasePayload()
		if p.Type == typ && p.Flags&flags == flags {
			return pkt
		}
	}
	t.Fatalf("no %v PDU with flags %#x on the wire", typ, flags)
	return nil
}

// dialSendClose runs one whole connection life from a to b's port 80 and
// returns the dialled session, terminated on both hosts.
func (p *pair) dialSendClose(t *testing.T, spec mechanism.Spec, payload string) *session.Session {
	t.Helper()
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	if err := s.Send([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	p.k.RunFor(time.Second)
	if got := string(p.received); got != payload {
		t.Fatalf("delivered %q, want %q", got, payload)
	}
	p.received = nil
	s.Close()
	p.k.RunFor(time.Second)
	if !s.Closed() || !p.accepted.Closed() {
		t.Fatalf("close did not complete: dialled closed=%v accepted closed=%v", s.Closed(), p.accepted.Closed())
	}
	if p.a.Session(s.ConnID()) != nil || p.b.Session(s.ConnID()) != nil {
		t.Fatal("a closed session is still in a demux table")
	}
	return s
}

// TestRedialWithClosedConnID is the stale-ConnID regression: a listener's
// closed session used to stay in the demux table for ever, so a later dial
// whose ConnID matched it sent its CONNREQs to a corpse and never
// established.
func TestRedialWithClosedConnID(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit2Way

	const genSeed = 99 // re-seeding the generator replays its ConnIDs
	p.a.rng = rand.New(rand.NewSource(genSeed))
	id := p.dialSendClose(t, spec, "first life").ConnID()

	// While the ended connection is remembered its ID is not handed out again.
	p.a.rng = rand.New(rand.NewSource(genSeed))
	if got := p.a.allocConnID(); got == id {
		t.Fatalf("allocConnID reissued %#x while it was tombstoned", id)
	}

	p.k.RunFor(tombLinger)
	p.a.rng = rand.New(rand.NewSource(genSeed))
	s2, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ConnID() != id {
		t.Fatalf("second dial drew ConnID %#x, not the closed %#x: the test lost its subject", s2.ConnID(), id)
	}
	s2.Open()
	s2.Send([]byte("second life"))
	p.k.RunFor(time.Second)
	if !s2.Established() {
		t.Fatal("a dial reusing a closed connection's ConnID never established")
	}
	if got := string(p.received); got != "second life" {
		t.Fatalf("second life delivered %q", got)
	}
}

// TestLatePDUsOfEndedConnection replays an ended connection's opening PDUs —
// the CONNREQ of an explicit one, the config-carrying first data PDU of an
// implicit one — and its FIN at the listener's stack: none may spawn a
// session, each is counted, and the FIN is acknowledged so a peer whose
// FINACK was lost can finish closing.
func TestLatePDUsOfEndedConnection(t *testing.T) {
	p := newPair(t, fastLink())
	tap := &wiretap{}
	p.b.InsertLayer(tap)

	explicit := mechanism.DefaultSpec()
	explicit.ConnMgmt = mechanism.ConnExplicit2Way
	p.dialSendClose(t, explicit, "explicit")
	implicit := mechanism.DefaultSpec()
	implicit.ConnMgmt = mechanism.ConnImplicit
	p.dialSendClose(t, implicit, "implicit")

	connReq := first(t, tap.in, wire.TConnReq, 0)
	cfgData := first(t, tap.in, wire.TData, wire.FlagImplicitCfg)
	fin := first(t, tap.in, wire.TFin, 0)

	before := p.b.Stats()
	finAcks := 0
	for _, pkt := range tap.out {
		if wire.Type(pkt[0]&0x0f) == wire.TFinAck {
			finAcks++
		}
	}
	from := p.a.LocalAddr()
	for _, pkt := range [][]byte{connReq, cfgData, fin} {
		p.b.onPacket(pkt, from)
	}
	p.k.RunFor(time.Second)

	after := p.b.Stats()
	if after.SessionsTotal != before.SessionsTotal || after.SessionsActive != 0 {
		t.Fatalf("a late PDU spawned a session: total %d -> %d, active %d",
			before.SessionsTotal, after.SessionsTotal, after.SessionsActive)
	}
	if got := after.LatePDUs - before.LatePDUs; got != 3 {
		t.Fatalf("late_pdus counted %d of 3 replayed PDUs", got)
	}
	if after.UnmatchedPDUs != before.UnmatchedPDUs {
		t.Fatal("a late PDU was filed as unmatched")
	}
	got := 0
	for _, pkt := range tap.out {
		if wire.Type(pkt[0]&0x0f) == wire.TFinAck {
			got++
		}
	}
	if got != finAcks+1 {
		t.Fatalf("the late FIN drew %d FINACKs, want 1", got-finAcks)
	}
}

// TestTombstoneTableBounded closes ten times the table's capacity inside one
// linger: the table never grows past its fixed size, the oldest entries are
// the ones evicted, and each close leaves no session behind.
func TestTombstoneTableBounded(t *testing.T) {
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnImplicit
	const n = 10 * tombCap
	for i := 1; i <= n; i++ {
		s, err := p.b.CreatePassiveSession(uint32(i), &spec, p.a.LocalAddr(), 80, 1000)
		if err != nil {
			t.Fatal(err)
		}
		s.Accept()
		s.Abort("test")
		if st := p.b.Stats(); st.Tombstones > tombCap || len(p.b.tombs.until) > tombCap || st.SessionsActive != 0 {
			t.Fatalf("after %d closes: %d ring slots, %d map entries (cap %d), %d sessions",
				i, st.Tombstones, len(p.b.tombs.until), tombCap, st.SessionsActive)
		}
	}
	now := p.k.Now()
	if p.b.tombs.has(n-tombCap, now) || !p.b.tombs.has(n-tombCap+1, now) || !p.b.tombs.has(n, now) {
		t.Fatal("the table did not keep exactly the newest tombCap connections")
	}
	if got := p.b.Stats().SessionsRetired; got != n {
		t.Fatalf("%d sessions retired, want %d", got, n)
	}
}

// TestAbortFromInsideCallbacks: the application may end a connection from
// inside the upcalls the session makes — a delivery, a loss notification —
// while the mechanism that made the upcall is still on the stack. The
// mechanism must unwind over the terminated session without touching what it
// released: nothing more is sent or delivered, every buffer goes back.
func TestAbortFromInsideCallbacks(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	for _, tc := range []struct {
		name  string
		drop  float64
		tune  func(*mechanism.Spec)
		abort func(s *session.Session, aborted *bool)
	}{
		{"delivery", 0.05, func(sp *mechanism.Spec) { sp.AckDelay = 2 * time.Millisecond },
			func(s *session.Session, aborted *bool) {
				n := 0
				s.SetReceiver(func(d session.Delivery) {
					d.Msg.Release()
					if n++; n == 20 { // mid-stream, with reordered data buffered behind it
						*aborted = true
						s.Abort("application")
					}
				})
			}},
		{"loss notification", 0.3, func(sp *mechanism.Spec) {
			sp.Recovery, sp.FECGroup, sp.LossTolerant, sp.Order = mechanism.RecoveryFEC, 4, true, mechanism.OrderSequenced
			sp.GapDeadline = 20 * time.Millisecond
		},
			func(s *session.Session, aborted *bool) {
				s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
				s.SetNotifier(func(n mechanism.Notification) {
					if n.Kind == mechanism.NoteAppLoss && !*aborted {
						*aborted = true
						s.Abort("application")
					}
				})
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			link := fastLink()
			link.DropRate = tc.drop
			p := newPair(t, link)
			base := message.Outstanding()
			var aborted bool
			var late int
			p.b.Unlisten(80)
			p.b.Listen(80, &Listener{OnAccept: func(s *session.Session) {
				p.accepted = s
				tc.abort(s, &aborted)
			}})
			tap := &wiretap{}
			p.b.InsertLayer(tap)
			spec := mechanism.DefaultSpec()
			spec.ConnMgmt = mechanism.ConnExplicit2Way
			tc.tune(&spec)
			s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
			if err != nil {
				t.Fatal(err)
			}
			s.Open()
			s.Send(make([]byte, 200<<10))
			for !aborted && p.k.Now() < 30*time.Second {
				p.k.RunFor(time.Millisecond)
			}
			if !aborted {
				t.Fatal("the callback never got to abort: the test lost its subject")
			}
			if !p.accepted.Closed() || p.b.Session(s.ConnID()) != nil {
				t.Fatal("aborting from inside a callback did not terminate the session")
			}
			late = len(tap.out)
			p.k.RunFor(time.Second)
			if len(tap.out) != late {
				t.Fatalf("the terminated session's host sent %d more packets", len(tap.out)-late)
			}
			s.Abort("test over")
			p.k.RunFor(time.Second) // in-flight packets land (and are dropped as late)
			if got := message.Outstanding(); got != base {
				t.Fatalf("%d pooled buffers not released", got-base)
			}
		})
	}
}
