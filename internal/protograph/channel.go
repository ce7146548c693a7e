package protograph

import (
	"maps"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// The out-of-band channel: every MANTTS signal and control-plane message that
// must arrive travels on it, one sequenced stream per peer SAP. It lives in
// the header of the TSignal/TControl PDU the document rides:
//
//	Seq     the document's sequence number; 0 is a fire-and-forget document
//	        (TransmitDoc), which goes straight to its handler
//	Ack     on a document, the sender's floor: the oldest sequence it still
//	        holds. On an acknowledgement (FlagEcho, no body), the next
//	        sequence the receiver expects
//	ConnID  the sending stack's incarnation
//
// A receiver hands a document to its handler only when it is the next in
// sequence, and acknowledges it after the handler has run, so an
// acknowledgement means "acted on". Duplicates and stale copies are
// re-acknowledged and dropped; a document past a gap is dropped too, and the
// sender repeats its window. The sender keeps at most DocWindow documents
// unacknowledged and retransmits them on the RTO of mechanism.Portable's
// estimator (Karn's rule: a repeated document is never timed). Once the oldest
// has gone unacknowledged for DocHorizon since it was first sent, the peer is
// unreachable: every document queued toward it gets done(false), and the next
// document's floor tells the receiver to skip them.
const (
	// DocWindow is how many documents a sender keeps unacknowledged toward
	// one peer.
	DocWindow = 32
	// DocHorizon is how long the oldest unacknowledged document is retried
	// before the sender gives up on its peer. A receiver forgets a peer it
	// has accepted nothing from for as long.
	DocHorizon = 2 * time.Second

	// docPeers caps the receive state: one entry per peer SAP, which any host
	// that reaches this one can create.
	docPeers = 1024
)

// docRTO bounds the channel's retransmission timeout: the data path's
// defaults.
var docRTO = mechanism.DefaultSpec()

// outDoc is a document the sender still holds.
type outDoc struct {
	typ         wire.Type
	body        []byte
	done        func(ok bool)
	first, sent time.Duration // first and latest transmission
	repeated    bool          // retransmitted: never timed
}

// docSender is the sending half toward one peer SAP. Of the embedded
// Portable it uses the sequence edges (SndUna is q[0]'s sequence, SndNxt the
// next to assign) and the RTT estimator, whose RTO doubles per timeout
// (backoff) until the next sample.
type docSender struct {
	mechanism.Portable
	to       netapi.Addr
	q        []*outDoc // unacknowledged, in sequence order
	inFlight int       // q[:inFlight] have been transmitted
	backoff  uint
	dups     int // acknowledgements in a row that moved nothing
	timer    *event.Event
}

// docReceiver is the receiving half from one peer SAP. next is 64-bit so it
// can pass the last sequence number without wrapping onto earlier ones.
type docReceiver struct {
	inc   uint32
	next  uint64
	heard time.Duration // when it was created or last accepted a document
}

// SendDoc sends one out-of-band TLV document — a MANTTS signal or a
// control-plane message — reliably: in order and once to dst's handler for t.
// done, when not nil, runs once: done(true) after that handler has run,
// done(false) when the channel gave up on dst.
func (st *Stack) SendDoc(t wire.Type, doc []wire.Field, dst netapi.Addr, done func(ok bool)) {
	c := st.senders[dst]
	if c == nil {
		c = &docSender{to: dst}
		c.SndUna, c.SndNxt, c.RTO = 1, 1, docRTO.RTOInit
		c.timer = st.timers.Schedule(c.RTO, func() { st.onDocTimeout(c) })
		st.senders[dst] = c
	}
	c.q = append(c.q, &outDoc{typ: t, body: wire.Append(nil, doc), done: done})
	c.SndNxt++
	st.transmit(c, c.inFlight)
	if !c.timer.Pending() {
		st.armDocTimer(c)
	}
}

// transmit puts c's held documents from the i-th up to the window's edge on
// the wire. Those below inFlight are repeats: this is the one place an
// out-of-band document is retransmitted, and the window goes again from its
// oldest document on, since the receiver has dropped whatever followed a gap.
func (st *Stack) transmit(c *docSender, i int) {
	now := st.clock.Now()
	for ; i < len(c.q) && i < DocWindow; i++ {
		d := c.q[i]
		if i < c.inFlight {
			d.repeated = true
		} else {
			d.first = now
			c.inFlight++
		}
		d.sent = now
		st.Emit(wire.Header{Type: d.typ, ConnID: st.inc, Seq: c.SndUna + uint32(i), Ack: c.SndUna}, d.body, c.to)
	}
}

// armDocTimer points c's timer at the next retransmission, or at the oldest
// document's give-up instant if that comes first; with nothing in flight it
// is canceled.
func (st *Stack) armDocTimer(c *docSender) {
	if c.inFlight == 0 {
		c.timer.Cancel()
		return
	}
	c.timer.Reset(min(c.RTO<<c.backoff, docRTO.RTOMax, c.q[0].first+DocHorizon-st.clock.Now()))
}

// onDocTimeout repeats the window after a timeout, or gives up on the peer.
// The timer runs only while something is in flight.
func (st *Stack) onDocTimeout(c *docSender) {
	if st.clock.Now()-c.q[0].first >= DocHorizon {
		failed := c.q
		c.q, c.inFlight, c.SndUna, c.backoff = nil, 0, c.SndNxt, 0
		for _, d := range failed {
			if d.done != nil {
				d.done(false)
			}
		}
		return
	}
	c.backoff = min(c.backoff+1, 10) // 10 ms doubled ten times is past RTOMax
	st.transmit(c, 0)
	st.armDocTimer(c)
}

// onDocAck takes a peer's cumulative acknowledgement.
func (st *Stack) onDocAck(h wire.Header, from netapi.Addr) {
	c := st.senders[from]
	if c == nil || h.ConnID != st.inc || h.Ack < c.SndUna || h.Ack > c.SndUna+uint32(c.inFlight) {
		return // not for this incarnation, or outside what is in flight
	}
	if h.Ack == c.SndUna {
		// The receiver dropped a document past a gap. The third such
		// acknowledgement repeats the window without waiting for the timeout.
		if c.dups++; c.dups == 3 {
			st.transmit(c, 0)
		}
		return
	}
	n := int(h.Ack - c.SndUna)
	acked := c.q[:n]
	if last := acked[n-1]; !last.repeated {
		c.ObserveRTT(st.clock.Now()-last.sent, docRTO.RTOMin, docRTO.RTOMax)
		c.backoff = 0
	}
	c.q, c.inFlight, c.SndUna, c.dups = c.q[n:], c.inFlight-n, h.Ack, 0
	if len(c.q) == 0 {
		c.q = nil // let go of the acknowledged documents
	}
	st.transmit(c, c.inFlight)
	st.armDocTimer(c)
	for _, d := range acked {
		if d.done != nil {
			d.done(true)
		}
	}
}

// onDoc is the receive side of every TSignal and TControl PDU.
func (st *Stack) onDoc(p *wire.PDU, from netapi.Addr) {
	h := p.Header
	if h.Flags&wire.FlagEcho != 0 {
		st.cache.PutPDU(p)
		st.onDocAck(h, from)
		return
	}
	if h.Seq == 0 {
		st.handOff(p, from)
		return
	}
	r := st.receiver(from, h.ConnID, h.Ack)
	if r == nil {
		st.cache.PutPDU(p)
		return
	}
	r.next = max(r.next, uint64(h.Ack)) // the sender gave up on what lies below its floor
	if uint64(h.Seq) == r.next {
		r.next++
		r.heard = st.clock.Now()
		st.handOff(p, from)
	} else {
		st.cache.PutPDU(p)
	}
	st.Emit(wire.Header{Type: h.Type, Flags: wire.FlagEcho, ConnID: h.ConnID, Ack: uint32(r.next)}, nil, from)
}

// receiver returns the receive state for a document of incarnation inc from a
// peer SAP, starting it afresh at the document's floor for a peer it does not
// know (or has forgotten) and for a newer incarnation. It refuses (nil) an
// older incarnation's straggler, and a new peer while the table is full of
// live ones.
func (st *Stack) receiver(from netapi.Addr, inc, floor uint32) *docReceiver {
	now := st.clock.Now()
	r := st.receivers[from]
	if live := r != nil && now-r.heard < DocHorizon; live && inc == r.inc {
		return r
	} else if live && inc < r.inc {
		return nil
	}
	if r == nil {
		if len(st.receivers) >= docPeers {
			maps.DeleteFunc(st.receivers, func(_ netapi.Addr, old *docReceiver) bool { return now-old.heard >= DocHorizon })
		}
		if len(st.receivers) >= docPeers {
			return nil
		}
		r = new(docReceiver)
		st.receivers[from] = r
	}
	*r = docReceiver{inc: inc, next: uint64(floor), heard: now}
	return r
}

// handOff gives an out-of-band PDU to its handler, which takes ownership.
func (st *Stack) handOff(p *wire.PDU, from netapi.Addr) {
	h := st.SignalHandler
	if p.Type == wire.TControl {
		h = st.ControlHandler
	}
	if h == nil {
		st.cache.PutPDU(p)
		return
	}
	h(p, from)
}

// Emit sends one out-of-band PDU as CRC-32: a document, an acknowledgement
// (no body), a probe or its echo.
func (st *Stack) Emit(h wire.Header, body []byte, dst netapi.Addr) {
	msgs := st.cache.Messages()
	p := wire.PDU{Header: h, Payload: msgs.PooledFromBytes(body)}
	st.cache.EncodeTo(&p, wire.CkCRC32, func(pkt []byte) error { return st.Transmit(pkt, dst) })
	msgs.Release(p.Payload)
}

// TransmitDoc sends one fire-and-forget out-of-band TLV document (a MANTTS
// quality report): no sequence number, no acknowledgement, no retry.
func (st *Stack) TransmitDoc(t wire.Type, doc []wire.Field, dst netapi.Addr) {
	st.doc = wire.Append(st.doc[:0], doc)
	st.Emit(wire.Header{Type: t}, st.doc, dst)
}

// Shutdown forgets the out-of-band channels: every document still
// unacknowledged goes without its done, every retransmission timer is
// canceled and the receive state is dropped (node shutdown, after the sessions
// those documents concerned have ended).
func (st *Stack) Shutdown() {
	for _, c := range st.senders {
		c.timer.Cancel()
	}
	clear(st.senders)
	clear(st.receivers)
}
