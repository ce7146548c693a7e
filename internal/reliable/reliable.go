// Package reliable provides the reliability-management composite components
// (ADAPTIVE Figure 5): error reporting (acknowledgments and selective
// negative acknowledgments) and error recovery (go-back-n and
// selective-repeat retransmission, forward error correction, or none). Error
// detection — the third subcomponent of the composite — is the checksum kind
// carried in the Spec and enforced at wire decode.
//
// The strategies share the session's TransferState, so the paper's
// flagship reconfiguration — switching a live session between go-back-n and
// selective repeat (or from retransmission to FEC when a route moves to a
// satellite link, §3C) — preserves sequence numbers and both buffers, losing
// no data.
package reliable

import (
	"encoding/binary"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/seqwin"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// maxNakList caps the number of missing sequences reported per NAK PDU.
const maxNakList = 64

// minRetxGap is the minimum spacing between retransmissions of one sequence
// (guards against NAK storms re-sending the same PDU every arrival).
func minRetxGap(st *mechanism.TransferState) time.Duration {
	g := st.SRTT / 2
	if g < time.Millisecond {
		g = time.Millisecond
	}
	return g
}

// throttle remembers when each sequence number was last retransmitted (or
// NAKed), so one loss is not answered again on every arrival. retransmit and
// nakGaps drop the entries below the cumulative point (SndUna, RcvNxt) before
// they consult it, which keeps the state inside the in-flight window and
// costs nothing while there is none. Instants are held offset by one so that
// virtual time zero is not the ring's "absent".
type throttle struct{ seqwin.Ring[time.Duration] }

// recent reports whether seq was marked less than gap ago.
func (t *throttle) recent(seq uint32, now, gap time.Duration) bool {
	at, ok := t.Get(seq)
	return ok && now-(at-1) < gap
}

// mark records that seq was answered at now. It reports false when seq is
// seqwin.MaxSpan or more from an entry still held: such a sequence number
// cannot be throttled, so the caller must not answer it.
func (t *throttle) mark(seq uint32, now time.Duration) bool { return t.Set(seq, now+1) }

// sendCumAck emits a cumulative acknowledgment for everything below RcvNxt.
// The ack is built in the TransferState's reusable control-PDU slot, so
// steady-state acking allocates nothing.
func sendCumAck(e mechanism.Env) {
	st := e.State()
	ack := st.RcvNxt
	if tr := e.Tracer(); tr != nil {
		tr.EmitKeyed(uint64(ack), e.Clock().Now(), trace.KAckSend, e.ConnID(), uint64(ack), 0, 0)
	}
	p := &st.CtrlScratch
	p.Header = wire.Header{Type: wire.TAck, Ack: ack}
	p.Payload = nil
	e.EmitControl(p)
}

// deliverRun releases a contiguous run drained from RcvBuf, recycling each
// entry (and its PDU) once the payload has been handed up.
func deliverRun(e mechanism.Env, run []*mechanism.RecvPDU) {
	st := e.State()
	for _, r := range run {
		eom := r.PDU.Flags&wire.FlagEOM != 0
		seq := r.PDU.Seq
		pl := r.PDU.Payload
		r.PDU.Payload = nil // ownership moves up
		st.FreeRecv(r)
		e.ReleaseData(seq, pl, eom)
	}
}

// retransmit re-emits the buffered entry for seq if present and not resent
// too recently. It returns true if a PDU went out.
func retransmit(e mechanism.Env, seq uint32, lastRetx *throttle) bool {
	st := e.State()
	entry, ok := st.Unacked.Get(seq)
	if !ok {
		return false
	}
	now := e.Clock().Now()
	lastRetx.DropBelow(st.SndUna)
	// (mark cannot refuse: pump keeps every unacknowledged sequence number
	// within seqwin.MaxSpan of SndUna, and nothing below SndUna is left.)
	if lastRetx.recent(seq, now, minRetxGap(st)) || !lastRetx.mark(seq, now) {
		return false
	}
	entry.Retransmits++
	st.Retransmissions++
	e.Tracer().Emit(now, trace.KRetransmit, e.ConnID(), uint64(seq), uint64(entry.Retransmits), 0)
	e.Metrics().Count("rel.retransmissions", 1)
	e.EmitData(entry.PDU)
	return true
}

// None is fire-and-forget: no acknowledgments, no retransmission, no send
// buffering — the underweight end of the design space (UDP-like), correct
// for fully loss-tolerant flows on clean networks.
type None struct{}

var _ mechanism.Recovery = (*None)(nil)

// NewNone returns the no-reliability strategy.
func NewNone() *None { return &None{} }

func (*None) Name() string   { return "none" }
func (*None) Reliable() bool { return false }
func (*None) UsesRTO() bool  { return false }

func (*None) Handover(mechanism.Env) {}
func (*None) Stop()                  {}

// OnSendData drops the payload immediately: nothing is buffered, so the
// window mechanism never sees in-flight backpressure (rate control is the
// only send governor, as with real datagram protocols).
func (*None) OnSendData(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	seq := p.Seq
	if entry, ok := st.Unacked.Take(seq); ok {
		st.FreeSent(entry) // recycles p and its payload
	} else {
		p.ReleasePayload()
	}
	if seq >= st.SndUna {
		st.SndUna = seq + 1
	}
}

func (*None) OnAck(mechanism.Env, *wire.PDU) {}
func (*None) OnNak(mechanism.Env, *wire.PDU) {}
func (*None) OnRTO(mechanism.Env)            {}

// OnData delivers immediately; ordering/duplicates are the Orderer's job.
func (*None) OnData(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	seq := p.Seq
	if seq >= st.RcvNxt {
		st.RcvNxt = seq + 1
	}
	eom := p.Flags&wire.FlagEOM != 0
	pl := p.Payload
	p.Payload = nil
	st.Cache.PutPDU(p)
	e.ReleaseData(seq, pl, eom)
}

func (*None) OnParity(mechanism.Env, *wire.PDU) {}

func (*None) ExportState() any   { return nil }
func (*None) ImportState(st any) {}

// GoBackN retransmits everything from the oldest unacknowledged PDU on a
// timeout or triple duplicate ack; its receiver keeps no out-of-order buffer
// (minimal receiver memory — the property the paper's congestion policy
// exploits when buffers tighten, §3C).
type GoBackN struct {
	lastRetx throttle
	acker    delayedAcker
}

var _ mechanism.Recovery = (*GoBackN)(nil)

// NewGoBackN returns a go-back-n strategy.
func NewGoBackN() *GoBackN { return &GoBackN{} }

func (*GoBackN) Name() string   { return "go-back-n" }
func (*GoBackN) Reliable() bool { return true }
func (*GoBackN) UsesRTO() bool  { return true }

// OnSendData has nothing to add: the session already recorded the PDU in
// Unacked.
func (g *GoBackN) OnSendData(e mechanism.Env, p *wire.PDU) {}

// OnAck handles fast retransmit on the third duplicate ack. (Cumulative-ack
// bookkeeping — AckThrough, RTT sampling, window growth — is generic and
// performed by the session before strategies see the PDU.)
func (g *GoBackN) OnAck(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	if st.DupAcks == 3 && st.InFlight() > 0 {
		e.WindowOnLoss()
		e.Metrics().Count("rel.fast_retransmits", 1)
		g.goBack(e)
	}
}

func (*GoBackN) OnNak(mechanism.Env, *wire.PDU) {} // GBN peers never NAK

// OnRTO retransmits the whole outstanding window from SndUna.
func (g *GoBackN) OnRTO(e mechanism.Env) {
	e.WindowOnLoss()
	e.State().BackoffRTO(e.Spec().RTOMax)
	g.goBack(e)
}

func (g *GoBackN) goBack(e mechanism.Env) {
	st := e.State()
	for seq := st.SndUna; seq < st.SndNxt; seq++ {
		retransmit(e, seq, &g.lastRetx)
	}
}

// OnData delivers in-order PDUs and discards out-of-order arrivals (sending
// a duplicate cumulative ack so the sender learns of the gap).
func (g *GoBackN) OnData(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	switch {
	case p.Seq == st.RcvNxt:
		st.RcvNxt++
		eom := p.Flags&wire.FlagEOM != 0
		seq := p.Seq
		pl := p.Payload
		p.Payload = nil
		st.Cache.PutPDU(p)
		e.ReleaseData(seq, pl, eom)
		// Data buffered by a pre-segue selective-repeat phase is still
		// deliverable: drain any contiguous run it left behind.
		deliverRun(e, st.DrainInOrder())
		g.acker.ack(e)
	default:
		// Out of order or duplicate: drop, re-ack immediately (duplicate
		// acks drive the sender's fast retransmit).
		st.Cache.PutPDU(p)
		e.Metrics().Count("rel.ooo_discarded", 1)
		g.acker.ackNow(e)
	}
}

func (*GoBackN) OnParity(mechanism.Env, *wire.PDU) {}

// Handover emits any coalesced delayed ack.
func (g *GoBackN) Handover(e mechanism.Env) { g.acker.stop(e) }

// Stop cancels the delayed-ack timer; nothing is emitted (session teardown).
func (g *GoBackN) Stop() { g.acker.cancel() }

func (g *GoBackN) ExportState() any { return g.lastRetx }
func (g *GoBackN) ImportState(st any) {
	if t, ok := st.(throttle); ok {
		g.lastRetx = t
	}
}

// SelectiveRepeat buffers out-of-order arrivals and reports gaps with NAK
// PDUs so the sender retransmits only what was lost — more receiver memory,
// far less redundant traffic on lossy or long-delay paths.
type SelectiveRepeat struct {
	lastRetx   throttle
	lastNak    throttle
	acker      delayedAcker
	nakScratch []uint32 // reused missing-sequence list (valid within one nakGaps call)

	// DisableThrottle turns off the per-sequence NAK/retransmission
	// pacing guards (ablation A3 measures what they are worth; never
	// disable in production configurations).
	DisableThrottle bool
}

var _ mechanism.Recovery = (*SelectiveRepeat)(nil)

// NewSelectiveRepeat returns a selective-repeat strategy.
func NewSelectiveRepeat() *SelectiveRepeat { return &SelectiveRepeat{} }

func (*SelectiveRepeat) Name() string   { return "selective-repeat" }
func (*SelectiveRepeat) Reliable() bool { return true }
func (*SelectiveRepeat) UsesRTO() bool  { return true }

func (s *SelectiveRepeat) OnSendData(e mechanism.Env, p *wire.PDU) {}

// OnAck has nothing to add to the generic ack bookkeeping the session runs
// before it.
func (*SelectiveRepeat) OnAck(mechanism.Env, *wire.PDU) {}

// OnNak retransmits exactly the listed sequences.
func (s *SelectiveRepeat) OnNak(e mechanism.Env, p *wire.PDU) {
	var list [maxNakList]uint32 // on the stack: a retransmission may re-enter OnNak
	for _, seq := range DecodeNakList(p, list[:0]) {
		if s.DisableThrottle {
			s.lastRetx.Take(seq)
		}
		retransmit(e, seq, &s.lastRetx)
	}
}

// OnRTO retransmits only the oldest outstanding PDU and backs off.
func (s *SelectiveRepeat) OnRTO(e mechanism.Env) {
	st := e.State()
	e.WindowOnLoss()
	st.BackoffRTO(e.Spec().RTOMax)
	oldest, ok := st.SndUna, true
	if _, mine := st.Unacked.Get(oldest); !mine {
		// Oldest hole isn't ours (already acked selectively); resend the
		// oldest PDU actually buffered.
		oldest, ok = st.Unacked.Min()
	}
	if ok {
		s.lastRetx.Take(oldest) // force: RTO overrides the retx gap
		retransmit(e, oldest, &s.lastRetx)
	}
}

// OnData buffers out-of-order data and NAKs the gaps.
func (s *SelectiveRepeat) OnData(e mechanism.Env, p *wire.PDU) {
	st := e.State()
	inOrder := false
	switch {
	case p.Seq < st.RcvNxt:
		st.Cache.PutPDU(p)
		e.Metrics().Count("rel.duplicates", 1)
	case st.RcvBuf.Len() >= st.RcvBufCap && p.Seq != st.RcvNxt:
		st.Cache.PutPDU(p)
		e.Metrics().Count("rel.rcvbuf_overflow", 1)
	default:
		if _, dup := st.RcvBuf.Get(p.Seq); dup {
			st.Cache.PutPDU(p)
			e.Metrics().Count("rel.duplicates", 1)
		} else if r := st.NewRecv(p, e.Clock().Now(), false); !st.RcvBuf.Set(p.Seq, r) {
			// Further ahead than any advertised window allows.
			st.FreeRecv(r)
			e.Metrics().Count("rel.rcvbuf_overflow", 1)
		} else {
			inOrder = p.Seq == st.RcvNxt
			deliverRun(e, st.DrainInOrder())
		}
	}
	if inOrder && st.RcvBuf.Len() == 0 {
		s.acker.ack(e)
	} else {
		// Gaps and duplicates signal loss: acknowledge immediately.
		s.acker.ackNow(e)
	}
	s.nakScratch = nakGaps(e, &s.lastNak, s.nakScratch, s.DisableThrottle)
}

// nakGaps reports the missing sequences between RcvNxt and the highest
// buffered arrival in one NAK PDU, throttled per sequence (unless unthrottled).
// missing is the caller's reusable list; it is returned for the next call.
func nakGaps(e mechanism.Env, lastNak *throttle, missing []uint32, unthrottled bool) []uint32 {
	st := e.State()
	missing = missing[:0]
	lastNak.DropBelow(st.RcvNxt)
	max, ok := st.RcvBuf.Max()
	if !ok {
		return missing
	}
	now := e.Clock().Now()
	gap := minRetxGap(st)
	for q := st.RcvNxt; q < max && len(missing) < maxNakList; q++ {
		if _, have := st.RcvBuf.Get(q); have {
			continue
		}
		if !unthrottled && lastNak.recent(q, now, gap) {
			continue
		}
		if !lastNak.mark(q, now) {
			// seqwin.MaxSpan or more past RcvNxt: further than a conforming
			// sender can be, and past what the throttle can hold.
			break
		}
		missing = append(missing, q)
	}
	if len(missing) > 0 {
		e.Metrics().Count("rel.naks_sent", 1)
		p := EncodeNak(st.Cache, missing)
		e.EmitControl(p)
		st.Cache.PutPDU(p) // EmitControl copies synchronously; recycle PDU + payload
	}
	return missing
}

func (*SelectiveRepeat) OnParity(mechanism.Env, *wire.PDU) {}

// Handover emits any coalesced delayed ack.
func (s *SelectiveRepeat) Handover(e mechanism.Env) { s.acker.stop(e) }

// Stop cancels the delayed-ack timer; nothing is emitted (session teardown).
func (s *SelectiveRepeat) Stop() { s.acker.cancel() }

type srState struct{ lastRetx, lastNak throttle }

func (s *SelectiveRepeat) ExportState() any {
	return srState{lastRetx: s.lastRetx, lastNak: s.lastNak}
}
func (s *SelectiveRepeat) ImportState(st any) {
	if v, ok := st.(srState); ok {
		s.lastRetx, s.lastNak = v.lastRetx, v.lastNak
	}
}

// EncodeNak builds a NAK PDU listing missing sequences, drawing the PDU and
// its payload from c's lists (nil: the shared tier).
func EncodeNak(c *wire.Cache, missing []uint32) *wire.PDU {
	if len(missing) > maxNakList {
		missing = missing[:maxNakList]
	}
	m := c.Messages().AllocPooled(4*len(missing), message.DefaultHeadroom)
	buf := m.Bytes()
	for i, q := range missing {
		binary.BigEndian.PutUint32(buf[4*i:], q)
	}
	p := c.GetPDU()
	p.Header = wire.Header{Type: wire.TNak, Aux: uint16(len(missing))}
	p.Payload = m
	return p
}

// DecodeNakList appends the missing-sequence list of a NAK PDU to into (the
// caller's scratch, or nil) and returns it: at most maxNakList sequences, what
// EncodeNak sends, whatever count a forged header claims.
func DecodeNakList(p *wire.PDU, into []uint32) []uint32 {
	b := p.PayloadBytes()
	n := min(int(p.Aux), len(b)/4, maxNakList)
	for i := 0; i < n; i++ {
		into = append(into, binary.BigEndian.Uint32(b[4*i:]))
	}
	return into
}

// AcksCoalesced reports how many acknowledgments the delayed-ack timer
// absorbed (whitebox metric for ablation A1).
func (s *SelectiveRepeat) AcksCoalesced() uint64 { return s.acker.Coalesced }
