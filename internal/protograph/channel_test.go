package protograph

import (
	"encoding/binary"
	"testing"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// numbered is a one-field document carrying its index.
func numbered(i uint32) []wire.Field {
	return []wire.Field{{Tag: 1, Form: wire.U32, At: &i}}
}

// TestDocChannelDeliversInOrderOnce sends documents over links that lose,
// duplicate, reorder and corrupt: each reaches the peer's handler once and in
// the order sent, and its done(true) runs once. Then the link goes down: the
// documents sent meanwhile end in done(false) at the horizon, and once it is
// back the next ones arrive though the receiver never saw the abandoned
// sequence numbers.
func TestDocChannelDeliversInOrderOnce(t *testing.T) {
	p := newPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500, DropRate: 0.1})
	for _, l := range []*netsim.Link{p.ab, p.ba} {
		if err := l.SetImpairment(&netsim.Impairment{ReorderRate: 0.05, ReorderDelay: 3 * time.Millisecond,
			DupRate: 0.05, CorruptRate: 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint32
	p.b.SignalHandler = func(pdu *wire.PDU, _ netapi.Addr) {
		got = append(got, binary.BigEndian.Uint32(pdu.PayloadBytes()[4:]))
		pdu.ReleasePayload()
	}
	ok, failed := map[uint32]int{}, map[uint32]int{}
	send := func(i uint32) {
		p.a.SendDoc(wire.TSignal, numbered(i), p.b.LocalAddr(), func(delivered bool) {
			if delivered {
				ok[i]++
			} else {
				failed[i]++
			}
		})
	}
	const n = 300
	for i := uint32(0); i < n; i++ {
		send(i)
	}
	p.k.RunFor(30 * time.Second)
	if len(got) != n || len(ok) != n || len(failed) != 0 {
		t.Fatalf("%d delivered, %d confirmed, %d failed; want %d, %d, 0", len(got), len(ok), len(failed), n, n)
	}
	for i, v := range got {
		if v != uint32(i) || ok[v] != 1 {
			t.Fatalf("delivery %d carried document %d (confirmed %d times)", i, v, ok[v])
		}
	}

	p.ab.SetDown(true)
	for i := uint32(n); i < n+5; i++ {
		send(i)
	}
	p.k.RunFor(DocHorizon + time.Second)
	if len(failed) != 5 || len(got) != n {
		t.Fatalf("peer unreachable: %d failed, %d delivered; want 5, %d", len(failed), len(got), n)
	}
	p.ab.SetDown(false)
	send(n + 5)
	p.k.RunFor(time.Second)
	if len(got) != n+1 || got[n] != n+5 || ok[n+5] != 1 {
		t.Fatalf("after the give-up: delivered %v, confirmed %d; want document %d once", got[n:], ok[n+5], n+5)
	}
	for _, st := range []*Stack{p.a, p.b} {
		if pending := st.Timers().Stats().Pending; pending != 0 {
			t.Fatalf("%d timers pending on an idle channel", pending)
		}
	}
}

// injectDoc hands st one channel document of type TControl from a peer, as
// if it had arrived from the network.
func injectDoc(st *Stack, from netapi.Addr, inc, seq, floor uint32) {
	p := st.cache.GetPDU()
	p.Header = wire.Header{Type: wire.TControl, ConnID: inc, Seq: seq, Ack: floor}
	st.onDoc(p, from)
}

// TestDocPeersBoundedAndExpire: any host that reaches the SAP can create a
// receive entry, so there are at most docPeers of them. A new peer is refused
// while every entry is live, and gets in once an idle one has expired.
func TestDocPeersBoundedAndExpire(t *testing.T) {
	p := newPair(t, fastLink())
	st := p.b
	var got int
	st.ControlHandler = func(pdu *wire.PDU, _ netapi.Addr) { got++; pdu.ReleasePayload() }
	peer := func(i int) netapi.Addr { return netapi.Addr{Host: netapi.HostID(1000 + i), Port: 1} }
	for i := 0; i < docPeers; i++ {
		injectDoc(st, peer(i), 7, 1, 1)
	}
	if len(st.receivers) != docPeers || got != docPeers {
		t.Fatalf("%d entries, %d delivered; want %d, %d", len(st.receivers), got, docPeers, docPeers)
	}
	injectDoc(st, peer(docPeers), 7, 1, 1)
	if len(st.receivers) != docPeers || got != docPeers || st.receivers[peer(docPeers)] != nil {
		t.Fatalf("a peer past the cap: %d entries, %d delivered", len(st.receivers), got)
	}
	p.k.RunFor(DocHorizon)
	injectDoc(st, peer(docPeers), 7, 1, 1)
	if len(st.receivers) != 1 || got != docPeers+1 {
		t.Fatalf("after the horizon: %d entries, %d delivered; want 1, %d", len(st.receivers), got, docPeers+1)
	}
}

// FuzzDocChannel feeds arbitrary header Seq/Ack/ConnID values, flags, PDU
// types, peers and bodies into the channel's receive side — documents and
// acknowledgements alike, with documents in flight toward two of the peers.
// Of the document contract (wiretest.Contract) the rule that applies is that
// nothing panics; the channel's own are that no sequence number of a peer's
// incarnation reaches a handler twice and that the receive state stays within
// docPeers.
func FuzzDocChannel(f *testing.F) {
	f.Add([]byte{})
	// Two in order from peer 1, a duplicate, a newer incarnation, an older
	// one, a floor jump, and acknowledgements for the documents in flight.
	f.Add([]byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 5, 2, 0xaa, 0xbb,
		0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 5, 0,
		0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 5, 0,
		2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 9, 0,
		2, 1, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 5, 0,
		0, 1, 0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0, 9, 0,
		1, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0,
		1, 3, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0,
	})
	type delivery struct {
		from     netapi.Addr
		inc, seq uint32
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		k := sim.NewKernel(1)
		net := netsim.New(k)
		st, err := NewStack(Config{Provider: net, Host: net.AddHost().ID()})
		if err != nil {
			t.Fatal(err)
		}
		peer := func(b byte) netapi.Addr { return netapi.Addr{Host: netapi.HostID(b), Port: 1} }
		for _, b := range []byte{2, 3} {
			st.SendDoc(wire.TSignal, numbered(uint32(b)), peer(b), nil)
		}
		seen := map[delivery]bool{}
		handler := func(p *wire.PDU, from netapi.Addr) {
			d := delivery{from, p.ConnID, p.Seq}
			if p.Seq != 0 && seen[d] {
				t.Fatalf("%+v delivered twice", d)
			}
			seen[d] = true
			p.ReleasePayload()
		}
		st.SignalHandler, st.ControlHandler = handler, handler
		// Each operation: flags (bit 0 an acknowledgement, bit 1 TControl),
		// peer, Seq, Ack, ConnID, body length, body.
		for len(raw) >= 15 {
			op := raw[:15]
			n := min(int(op[14]), len(raw)-15)
			body := raw[15 : 15+n]
			raw = raw[15+n:]
			p := st.cache.GetPDU()
			p.Type = wire.TSignal
			if op[0]&2 != 0 {
				p.Type = wire.TControl
			}
			if op[0]&1 != 0 {
				p.Flags = wire.FlagEcho
			}
			p.Seq = binary.BigEndian.Uint32(op[2:])
			p.Ack = binary.BigEndian.Uint32(op[6:])
			p.ConnID = binary.BigEndian.Uint32(op[10:])
			if n > 0 {
				p.Payload = st.cache.Messages().PooledFromBytes(body)
			}
			st.onDoc(p, peer(op[1]))
			if len(st.receivers) > docPeers {
				t.Fatalf("%d receive entries, cap %d", len(st.receivers), docPeers)
			}
			for a, c := range st.senders {
				if c.SndNxt-c.SndUna != uint32(len(c.q)) || c.inFlight > min(len(c.q), DocWindow) {
					t.Fatalf("sender to %v: SndUna %d, SndNxt %d, %d held, %d in flight", a, c.SndUna, c.SndNxt, len(c.q), c.inFlight)
				}
			}
		}
	})
}
