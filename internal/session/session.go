// Package session implements the TKO_Session and TKO_Context abstractions
// (ADAPTIVE §4.2): a transport session whose behavior is entirely determined
// by a table of plug-compatible mechanisms — connection management,
// transmission window, rate control, reliability management, and sequencing
// — synthesized from a Session Configuration Specification.
//
// The Segue* methods implement the paper's segue operation: replacing a
// mechanism in a live session without loss of data, by handing shared
// TransferState plus mechanism-private exported state to the incoming
// instance between PDUs.
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/seqwin"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
)

// Slots is the TKO_Context table: one concrete mechanism per abstract base
// class.
type Slots struct {
	Conn     mechanism.ConnManager
	Window   mechanism.Window
	Rate     mechanism.Rate
	Recovery mechanism.Recovery
	Orderer  mechanism.Orderer
}

// Factory synthesizes a full slot table from a Spec (implemented by the TKO
// synthesizer; sessions use it to re-synthesize slots when a negotiation or
// policy changes the Spec).
type Factory func(*mechanism.Spec) (Slots, error)

// Outbound is the session's path to the network (implemented by the stack's
// protocol graph).
type Outbound interface {
	Transmit(pkt []byte, dst netapi.Addr) error
}

// Delivery re-exports mechanism.Delivery for receivers.
type Delivery = mechanism.Delivery

// Params configures a new session.
type Params struct {
	ConnID    uint32
	LocalPort uint16
	PeerPort  uint16
	PeerNet   netapi.Addr // network-level peer (host or multicast group + SAP)
	Spec      *mechanism.Spec
	Slots     Slots
	Factory   Factory
	Clock     netapi.Clock
	Timers    *event.Manager
	Rand      *rand.Rand
	Metrics   mechanism.MetricSink
	Tracer    *trace.Recorder // nil disables flight-recorder hooks
	Out       Outbound
	// Cache is the free lists of the event loop the session runs on (the
	// stack's provider's loop tier); nil keeps its pooled objects on the
	// shared tier.
	Cache *wire.Cache
	// OnTerminal, when non-nil, runs once, inside the terminal transition
	// (see Session.terminate), after the session has released everything it
	// held: the stack drops its demux entry here.
	OnTerminal func(*Session)
}

// The counters a session bumps for every PDU. Each resolves once into a cell
// of the session's Recorder (see Session.count); every other counter is a
// rare event and goes through MetricSink.Count by name.
const (
	ctrPDUSent = iota
	ctrBytesSent
	ctrPDUReceived
	ctrDeliveredPDUs
	ctrDeliveredBytes
	numHotCounters
)

var hotCounterNames = [numHotCounters]string{
	"pdu.sent", "bytes.sent", "pdu.received", "app.delivered_pdus", "app.delivered_bytes",
}

// Identity is what names a session on the wire and in the stack's tables.
type Identity struct {
	ConnID    uint32
	LocalPort uint16
	PeerPort  uint16
	PeerNet   netapi.Addr // network-level peer (host or multicast group + SAP)
}

// Meters are the session-level whitebox counters (UNITES reads them; a
// hand-off carries them so they continue across hosts). Together with
// mechanism.Portable they are the session's portable scalars, declared here
// and nowhere else: Session embeds them, Handoff carries them by value, the
// control plane's record tags each field (DESIGN.md §5.19).
type Meters struct {
	SentPDUs       uint64
	SentBytes      uint64
	RecvPDUs       uint64
	RecvBytes      uint64
	DeliveredMsg   uint64
	DeliveredBytes uint64
	Segues         uint64 // mechanism replacements performed
}

type queuedSeg struct {
	msg *message.Message
	eom bool
}

// Session is a live transport session.
type Session struct {
	id Identity
	Meters

	spec    *mechanism.Spec
	state   *mechanism.TransferState
	slots   Slots
	factory Factory

	clock   netapi.Clock
	timers  *event.Manager
	rng     *rand.Rand
	metrics mechanism.MetricSink
	cells   [numHotCounters]*unites.Cell // resolved from metrics at first use
	tracer  *trace.Recorder
	out     Outbound
	onTerm  func(*Session)

	recvCb func(Delivery)
	noteCb func(mechanism.Notification)

	sendQ     []queuedSeg
	sendQH    int // consumed prefix of sendQ (head index)
	pumpTimer *event.Event
	kaTimer   *event.Event  // keepalive probe / dead-peer check
	lastHeard time.Duration // virtual time of the last PDU from the peer

	// armRTO runs on every send and every ack, so the retransmission timer
	// is a single Event re-armed with Reset; the canceled-and-rescheduled
	// kernel events it leaves in the wheel are recycled from block-allocated
	// free lists, so the churn costs no steady-state allocation.
	rtoTimer *event.Event
	rtoFn    func() // s.onRTO bound once

	// Closure-free transmit path: emitFn is s.emitPacket bound once; the tx*
	// scalars carry the per-packet trace fields from transmitPDU into
	// emitPacket without capturing the PDU (which would force control PDUs to
	// escape to the heap). They are read before the packet is handed to the
	// network, so synchronous re-entry cannot clobber an emit in progress.
	emitFn func(pkt []byte) error
	txSeq  uint64
	txAck  uint64
	txType uint64

	pumpFn func() // s.pump bound once for the rate-gap timer

	closing        bool
	graceful       bool
	markSegue      bool
	reconfigurable bool
	frozen         bool // egress halted for a migration handoff
	retired        bool // handed off to another host (ErrMigrated on Send)
	done           bool // past the terminal transition: a husk that only answers reads
}

// New creates a session from fully-synthesized slots. It does not start the
// connection: call Open (active) or Accept (passive).
func New(p Params) *Session {
	if p.Spec == nil {
		panic("session: nil spec")
	}
	p.Spec.Normalize()
	s := &Session{
		id:             Identity{p.ConnID, p.LocalPort, p.PeerPort, p.PeerNet},
		spec:           p.Spec,
		state:          mechanism.NewTransferState(p.Spec.RcvBufPDUs, p.Spec.RTOInit),
		slots:          p.Slots,
		factory:        p.Factory,
		clock:          p.Clock,
		timers:         p.Timers,
		rng:            p.Rand,
		metrics:        p.Metrics,
		tracer:         p.Tracer,
		out:            p.Out,
		onTerm:         p.OnTerminal,
		reconfigurable: true,
	}
	if s.metrics == nil {
		s.metrics = mechanism.NopSink{}
	}
	s.state.Cache = p.Cache
	s.emitFn = s.emitPacket
	s.pumpFn = s.pump
	s.rtoFn = s.onRTO
	return s
}

// --- identity and wiring ---

// ConnID returns the connection identifier shared by both ends.
func (s *Session) ConnID() uint32 { return s.id.ConnID }

// LocalPort returns the local transport port.
func (s *Session) LocalPort() uint16 { return s.id.LocalPort }

// PeerAddr returns the network-level peer address.
func (s *Session) PeerAddr() netapi.Addr { return s.id.PeerNet }

// SetReceiver installs the application's delivery callback.
func (s *Session) SetReceiver(fn func(Delivery)) { s.recvCb = fn }

// SetNotifier installs the owner's notification callback (application
// call-backs and the MANTTS policy engine both subscribe through the stack).
func (s *Session) SetNotifier(fn func(mechanism.Notification)) { s.noteCb = fn }

// Spec returns the current configuration.
func (s *Session) Spec() *mechanism.Spec { return s.spec }

// MetricSink returns the session's instrumentation sink.
func (s *Session) MetricSink() mechanism.MetricSink { return s.metrics }

// SetMetricSink replaces the instrumentation sink (TKO applies the
// application's Transport Measurement Component filter here, §4.3).
func (s *Session) SetMetricSink(m mechanism.MetricSink) {
	if m == nil {
		m = mechanism.NopSink{}
	}
	s.metrics = m
	s.cells = [numHotCounters]*unites.Cell{}
}

// count bumps one of the per-PDU counters. On a Recorder the counter's cell is
// resolved at its first increment — which is also when its name first shows in
// the exports, as with a by-name Count — and every later bump is one atomic
// add. Any other sink (a TMC filter, a test sink) is counted by name.
func (s *Session) count(ctr int, delta uint64) {
	if c := s.cells[ctr]; c != nil {
		c.Add(delta)
	} else if r, ok := s.metrics.(*unites.Recorder); ok {
		s.cells[ctr] = r.Cell(hotCounterNames[ctr])
		s.cells[ctr].Add(delta)
	} else {
		s.metrics.Count(hotCounterNames[ctr], delta)
	}
}

// State exposes the shared transfer state. After the terminal transition it
// holds the final scalars (sequence edges, RTT estimate, counters) and empty
// buffers.
func (s *Session) State() *mechanism.TransferState { return s.state }

// CurrentSlots returns the current mechanism bindings (for inspection); the
// zero Slots once the session has terminated.
func (s *Session) CurrentSlots() Slots { return s.slots }

// Established reports whether data may flow.
func (s *Session) Established() bool { return !s.done && s.slots.Conn.Established() }

// Closed reports whether the connection has fully terminated.
func (s *Session) Closed() bool { return s.done || s.slots.Conn.Closed() }

// --- lifecycle ---

// Open starts an active connection attempt.
func (s *Session) Open() { s.slots.Conn.StartActive(s.env()) }

// Accept starts the passive side; the triggering PDU (if any) is then fed
// through HandlePDU by the stack.
func (s *Session) Accept() { s.slots.Conn.StartPassive(s.env()) }

// Close terminates the session. With graceful semantics (Spec.Graceful) and
// a reliable recovery mechanism, termination waits until all submitted data
// is acknowledged.
func (s *Session) Close() {
	if s.closing {
		return
	}
	s.closing = true
	s.graceful = s.spec.Graceful
	if s.graceful && s.slots.Recovery.Reliable() && (s.queuedLen() > 0 || s.state.InFlight() > 0) {
		return // close completes when the drain finishes (see maybeFinishClose)
	}
	s.finishClose()
}

func (s *Session) finishClose() {
	s.cancelTimers()
	s.slots.Conn.Close(s.env(), s.graceful)
}

// cancelTimers stops the retransmission, pacing and keepalive timers (close,
// migration freeze, terminal transition).
func (s *Session) cancelTimers() {
	for _, t := range [...]*event.Event{s.rtoTimer, s.pumpTimer, s.kaTimer} {
		if t != nil {
			t.Cancel()
		}
	}
}

// AbortEstablish cancels an in-progress active open (DialContext
// cancellation or deadline expiry). It is a no-op once the connection is
// established or closed; the connection manager reports the failure through
// NoteEstablishFailed.
func (s *Session) AbortEstablish(why string) {
	if s.Established() || s.Closed() {
		return
	}
	s.closing = true
	s.slots.Conn.Abort(s.env(), why)
}

// Abort terminates the session immediately without the closing handshake;
// nothing is transmitted.
func (s *Session) Abort(why string) {
	if s.Closed() {
		return
	}
	s.closing = true
	s.slots.Conn.Abort(s.env(), why)
}

func (s *Session) maybeFinishClose() {
	if s.closing && s.queuedLen() == 0 && s.state.InFlight() == 0 && !s.Closed() {
		s.finishClose()
	}
}

// terminate is the session's one terminal transition. Every way a connection
// ends reaches it exactly once — the connection manager reporting NoteClosed
// or NoteEstablishFailed (graceful drain, peer FIN, FIN-retry exhaustion,
// abort, dead peer, failed or canceled establishment; see notify) and Retire
// (migration hand-off) — and it is the only place a session gives back what
// it holds: its timers and its mechanisms' are canceled, every retained
// message buffer returns to its pool, the send queue, the transfer buffers,
// the mechanism slots, the application's callbacks and the metric sink are
// dropped, and OnTerminal tells the stack, which drops the demux entry and
// fans out to the layers that keep per-connection state. What remains is a
// husk that answers identity, Closed, Spec, State's scalars and the
// counters — the final snapshot — whoever still holds it, and transmits
// nothing.
func (s *Session) terminate() {
	if s.done {
		return
	}
	s.done, s.closing, s.reconfigurable = true, true, false
	s.cancelTimers()
	s.rtoTimer, s.pumpTimer, s.kaTimer = nil, nil, nil
	s.slots.Recovery.Stop() // delayed-ack and gap timers
	msgs := s.msgs()
	for _, d := range s.slots.Orderer.Flush() {
		msgs.Release(d.Msg)
	}
	for i := s.sendQH; i < len(s.sendQ); i++ {
		msgs.Release(s.sendQ[i].msg)
	}
	s.sendQ, s.sendQH = nil, 0
	s.state.Release()
	s.slots, s.factory = Slots{}, nil
	s.recvCb, s.noteCb = nil, nil
	s.SetMetricSink(nil)
	if s.onTerm != nil {
		s.onTerm(s)
	}
}

// --- send queue (head-indexed FIFO; the backing array is reused instead of
// resliced away, so steady-state queue churn allocates nothing) ---

func (s *Session) queuedLen() int { return len(s.sendQ) - s.sendQH }

// msgs returns the message lists of the session's loop (nil once the session
// has ended: the shared tier).
func (s *Session) msgs() *message.Cache { return s.state.Cache.Messages() }

func (s *Session) pushSeg(q queuedSeg) { s.sendQ = append(s.sendQ, q) }

// pushSegFront re-queues a segment at the head (implicit-config re-split).
func (s *Session) pushSegFront(q queuedSeg) {
	if s.sendQH > 0 {
		s.sendQH--
		s.sendQ[s.sendQH] = q
		return
	}
	s.sendQ = append(s.sendQ, queuedSeg{})
	copy(s.sendQ[1:], s.sendQ)
	s.sendQ[0] = q
}

func (s *Session) popSeg() queuedSeg {
	q := s.sendQ[s.sendQH]
	s.sendQ[s.sendQH] = queuedSeg{} // drop the message reference
	s.sendQH++
	if s.sendQH == len(s.sendQ) {
		s.sendQ = s.sendQ[:0]
		s.sendQH = 0
	} else if s.sendQH >= 256 && s.sendQH*2 >= len(s.sendQ) {
		// Compact a long-lived backlog so the array cannot grow without
		// bound while the queue never fully drains.
		n := copy(s.sendQ, s.sendQ[s.sendQH:])
		for i := n; i < len(s.sendQ); i++ {
			s.sendQ[i] = queuedSeg{}
		}
		s.sendQ = s.sendQ[:n]
		s.sendQH = 0
	}
	return q
}

var errClosed = errors.New("session: closed")

// Send queues data for transmission under the window, rate, and
// establishment gates, one MSS-sized segment per pooled buffer: each byte is
// copied once, into a buffer that is the segment's alone and has header and
// trailer room of its own, so every transmission of it — first, repeated, or
// under FEC — is encoded in place (wire.EncodeTo). The caller keeps ownership
// of data; a refused Send allocates nothing.
func (s *Session) Send(data []byte) error {
	if s.retired {
		return ErrMigrated
	}
	if s.closing || s.Closed() {
		return errClosed
	}
	if s.tracer != nil {
		// Keyed on the next tx seq: submits track the data rate, so sampled
		// recordings thin them with the PDU events instead of keeping all.
		s.tracer.EmitKeyed(s.txSeq, s.clock.Now(), trace.KSendSubmit, s.id.ConnID, uint64(len(data)), 0, 0)
	}
	mss, msgs := s.spec.MSS, s.msgs()
	for len(data) > mss {
		s.pushSeg(queuedSeg{msg: msgs.PooledFromBytes(data[:mss])})
		data = data[mss:]
	}
	// The final segment carries the end-of-message flag (an empty message is
	// one empty segment).
	s.pushSeg(queuedSeg{msg: msgs.PooledFromBytes(data), eom: true})
	s.pump()
	return nil
}

// SendMessage is Send for data already in a message, whose ownership
// transfers to the session: there is one segmenter, so the bytes are copied
// into segment buffers like any others and m is released.
func (s *Session) SendMessage(m *message.Message) error {
	err := s.Send(m.Bytes())
	s.msgs().Release(m)
	return err
}

// QueuedSegments returns the number of segments awaiting transmission.
func (s *Session) QueuedSegments() int { return s.queuedLen() }

// --- transmit pipeline ---

// pump drives the transmit loop: it emits queued segments while the
// connection is established, the window has room, and the pacer permits.
func (s *Session) pump() {
	if s.frozen || !s.Established() {
		return
	}
	for s.queuedLen() > 0 {
		if !s.slots.Window.CanSend(s.state.InFlight(), s.state.PeerAdvert) ||
			s.state.SndNxt-s.state.SndUna >= seqwin.MaxSpan {
			// The second bound is the wire's: a 16-bit window field cannot
			// advertise more, whatever the Spec asks for.
			return
		}
		seg := s.sendQ[s.sendQH]
		d := s.slots.Rate.Delay(s.clock.Now(), seg.msg.Len()+wire.Overhead)
		if d > 0 {
			if s.pumpTimer == nil {
				s.pumpTimer = s.timers.Schedule(d, s.pumpFn)
			} else if !s.pumpTimer.Pending() {
				s.pumpTimer.Reset(d)
			}
			return
		}
		s.emitSegment(s.popSeg())
	}
	if s.state.InFlight() == 0 {
		s.notify(mechanism.Notification{Kind: mechanism.NoteSendQueueEmpty})
		s.maybeFinishClose()
	}
}

// emitSegment assigns a sequence number and transmits one fresh data PDU.
func (s *Session) emitSegment(seg queuedSeg) {
	st := s.state

	// Implicit connection setup: prepend the config blob to the first
	// data PDU (ADAPTIVE §4.1.1, implicit negotiation). The blob counts
	// against the segment's MSS budget, so the segment may need to shrink
	// (the tail goes back to the head of the queue).
	blob := s.slots.Conn.Piggyback(s.env())
	if len(blob) > 0 && seg.msg.Len()+len(blob) > s.spec.MSS {
		rest := seg.msg.Split(s.spec.MSS - len(blob))
		s.pushSegFront(queuedSeg{msg: rest, eom: seg.eom})
		seg.eom = false
	}

	seq := st.SndNxt
	st.SndNxt++
	p := st.Cache.GetPDU()
	p.Type = wire.TData
	p.Seq = seq
	p.Payload = seg.msg
	if seg.eom {
		p.Flags |= wire.FlagEOM
	}
	if len(blob) > 0 {
		p.Flags |= wire.FlagImplicitCfg
		p.Aux = uint16(len(blob))
		msgs := s.msgs()
		withCfg := msgs.AllocPooled(len(blob)+seg.msg.Len(), message.DefaultHeadroom)
		b := withCfg.Bytes()
		copy(b, blob)
		copy(b[len(blob):], seg.msg.Bytes())
		msgs.Release(seg.msg)
		p.Payload = withCfg
	}

	// pump keeps SndNxt within seqwin.MaxSpan of SndUna, so the entry fits.
	st.Unacked.Set(seq, st.NewSent(p, s.clock.Now()))
	size := wire.Overhead
	if p.Payload != nil {
		size += p.Payload.Len()
	}
	s.transmitPDU(p)
	s.slots.Recovery.OnSendData(s.env(), p)
	s.slots.Rate.OnSent(s.clock.Now(), size)
	if s.spec.Multicast {
		// Multicast senders keep no per-receiver state: no ack-driven
		// buffer (ack implosion is suppressed receiver-side too).
		if e, ok := st.Unacked.Take(seq); ok {
			st.FreeSent(e)
		}
		if st.SndUna <= seq {
			st.SndUna = seq + 1
		}
	}
	s.armRTO()
}

// transmitPDU stamps common header fields, encodes, and hands the packet to
// the network.
func (s *Session) transmitPDU(p *wire.PDU) {
	if s.done {
		return // a mechanism still unwinding after the terminal transition
	}
	p.ConnID = s.id.ConnID
	p.SrcPort = s.id.LocalPort
	p.DstPort = s.id.PeerPort
	p.Window = s.state.Advertise()
	if s.spec.Multicast {
		p.Flags |= wire.FlagMcast
	}
	if s.markSegue && p.Type == wire.TData {
		p.Flags |= wire.FlagSegueMark
		s.markSegue = false
	}
	s.txSeq = uint64(p.Seq)
	s.txAck = uint64(p.Ack)
	s.txType = uint64(p.Type)
	s.state.Cache.EncodeTo(p, s.spec.Checksum, s.emitFn)
}

// emitPacket is the EncodeTo sink: it counts, traces, and hands the packet to
// the network. Bound once per session (see emitFn) so transmission builds no
// closure per PDU.
func (s *Session) emitPacket(pkt []byte) error {
	s.SentPDUs++
	s.SentBytes += uint64(len(pkt))
	if s.tracer != nil {
		s.tracer.EmitKeyed(s.txSeq|s.txAck, s.clock.Now(), trace.KPDUSend,
			s.id.ConnID, s.txSeq, s.txType, uint64(len(pkt)))
	}
	s.count(ctrPDUSent, 1)
	s.count(ctrBytesSent, uint64(len(pkt)))
	if err := s.out.Transmit(pkt, s.id.PeerNet); err != nil {
		s.metrics.Count("pdu.send_errors", 1)
	}
	return nil
}

// armRTO (re)starts the retransmission timer while data is outstanding.
func (s *Session) armRTO() {
	if s.frozen {
		return
	}
	if s.state.InFlight() == 0 {
		if s.rtoTimer != nil {
			s.rtoTimer.Cancel()
		}
		return
	}
	if s.rtoTimer == nil {
		s.rtoTimer = s.timers.Schedule(s.state.RTO, s.rtoFn)
	} else {
		s.rtoTimer.Reset(s.state.RTO)
	}
}

func (s *Session) onRTO() {
	if s.frozen || s.state.InFlight() == 0 {
		return
	}
	s.metrics.Count("rel.rto_fired", 1)
	s.slots.Recovery.OnRTO(s.env())
	if s.done {
		return // the application closed it from inside a notification
	}
	if s.slots.Recovery.UsesRTO() {
		s.armRTO()
	}
	s.pump()
}

// --- receive pipeline ---

// HandlePDU processes one arriving PDU (already checksum-verified by wire
// decode). The stack calls it from the protocol graph demultiplexer.
func (s *Session) HandlePDU(p *wire.PDU) {
	s.RecvPDUs++
	s.RecvBytes += uint64(wire.Overhead + int(p.PayloadLen))
	if s.tracer != nil {
		s.tracer.EmitKeyed(uint64(p.Seq)|uint64(p.Ack), s.clock.Now(), trace.KPDURecv,
			s.id.ConnID, uint64(p.Seq), uint64(p.Type), uint64(p.PayloadLen))
	}
	s.count(ctrPDUReceived, 1)
	s.lastHeard = s.clock.Now()
	if p.Type == wire.TAck {
		s.state.PeerAdvert = int(p.Window)
	}
	pdus := s.state.Cache
	if p.Type == wire.TKeepalive {
		if p.Flags&wire.FlagEcho == 0 && !s.Closed() {
			s.transmitPDU(&wire.PDU{Header: wire.Header{Type: wire.TKeepalive, Flags: wire.FlagEcho}})
		}
		pdus.PutPDU(p)
		return
	}

	if s.slots.Conn.OnPDU(s.env(), p) {
		pdus.PutPDU(p)
		s.pump()
		return
	}

	switch p.Type {
	case wire.TData:
		if p.Payload == nil {
			// Zero-length segments decode with a nil payload; the
			// delivery pipeline owns a message either way.
			p.Payload = s.msgs().AllocPooled(0, 0)
		}
		if p.Flags&wire.FlagImplicitCfg != 0 && p.Aux > 0 && p.Payload != nil {
			// Strip the piggybacked config (already applied when the
			// passive session was created; duplicates may re-carry it).
			if int(p.Aux) <= p.Payload.Len() {
				p.Payload.Pop(int(p.Aux))
			}
		}
		// Ownership of p moves to the recovery mechanism, which recycles
		// it at its terminal (drop, or delivery via FreeRecv).
		s.slots.Recovery.OnData(s.env(), p)
	case wire.TAck:
		s.processAck(p)
		if !s.done { // the ack may have completed an abortive close's drain
			s.slots.Recovery.OnAck(s.env(), p)
			s.pump()
		}
		pdus.PutPDU(p)
	case wire.TNak:
		s.slots.Recovery.OnNak(s.env(), p)
		pdus.PutPDU(p)
	case wire.TParity:
		s.slots.Recovery.OnParity(s.env(), p)
		pdus.PutPDU(p)
	default:
		pdus.PutPDU(p)
		s.metrics.Count("pdu.unexpected", 1)
	}
}

// processAck performs the strategy-independent cumulative-ack bookkeeping:
// buffer cleanup, RTT sampling (Karn-filtered), window growth, RTO
// re-arming, duplicate-ack counting, and close-drain progress.
func (s *Session) processAck(p *wire.PDU) {
	st := s.state
	if p.Ack <= st.SndUna {
		if st.InFlight() > 0 && p.Ack == st.SndUna {
			st.DupAcks++
		}
		return
	}
	acked, sentAt, ok := st.AckThrough(p.Ack)
	if ok {
		st.LastRTT = s.clock.Now() - sentAt
		st.ObserveRTT(st.LastRTT, s.spec.RTOMin, s.spec.RTOMax)
	}
	if acked > 0 {
		s.slots.Window.OnAck(acked)
		s.armRTO()
	}
	if s.queuedLen() == 0 && st.InFlight() == 0 {
		s.notify(mechanism.Notification{Kind: mechanism.NoteSendQueueEmpty})
		s.maybeFinishClose()
	}
}

// releaseData hands recovered data through the sequencing mechanism to the
// application.
func (s *Session) releaseData(seq uint32, m *message.Message, eom bool) {
	if s.done {
		s.msgs().Release(m)
		return
	}
	for _, d := range s.slots.Orderer.Submit(seq, m, eom) {
		s.deliver(d)
	}
}

func (s *Session) deliver(d Delivery) {
	s.DeliveredMsg++
	s.DeliveredBytes += uint64(d.Msg.Len())
	if s.tracer != nil {
		eom := uint64(0)
		if d.EOM {
			eom = 1
		}
		s.tracer.EmitKeyed(uint64(d.Seq), s.clock.Now(), trace.KDeliver,
			s.id.ConnID, uint64(d.Seq), uint64(d.Msg.Len()), eom)
	}
	s.count(ctrDeliveredPDUs, 1)
	s.count(ctrDeliveredBytes, uint64(d.Msg.Len()))
	if s.recvCb != nil {
		s.recvCb(d)
	} else {
		s.msgs().Release(d.Msg)
	}
}

func (s *Session) notify(n mechanism.Notification) {
	cb := s.noteCb
	switch n.Kind {
	case mechanism.NoteEstablished:
		s.startKeepalive()
	case mechanism.NoteClosed, mechanism.NoteEstablishFailed:
		s.terminate() // the owner hears the final note from the husk
	}
	if cb != nil {
		cb(n)
	}
}

// --- keepalive / dead-peer detection ---

// startKeepalive arms the keepalive probe cycle when the Spec enables it
// (KeepaliveInterval > 0). An idle session probes the peer with TKeepalive
// PDUs; DeadInterval of total silence declares the peer dead: the owner gets
// NotePeerDead and the connection is torn down abortively (there is nobody
// left to handshake with).
func (s *Session) startKeepalive() {
	iv := s.spec.KeepaliveInterval
	if iv <= 0 || s.kaTimer != nil {
		return
	}
	s.lastHeard = s.clock.Now()
	s.kaTimer = s.timers.Schedule(iv, s.keepaliveTick)
}

func (s *Session) keepaliveTick() {
	if s.closing {
		return
	}
	if s.frozen {
		// A frozen (migrating) session must not emit probes; keep the
		// cycle armed in case the migration aborts and egress resumes.
		s.kaTimer.Reset(s.spec.KeepaliveInterval)
		return
	}
	iv := s.spec.KeepaliveInterval
	if iv <= 0 {
		return // reconfigured away mid-cycle
	}
	idle := s.clock.Now() - s.lastHeard
	if dead := s.spec.DeadInterval; dead > 0 && idle >= dead {
		s.metrics.Count("session.peer_dead", 1)
		s.notify(mechanism.Notification{
			Kind:   mechanism.NotePeerDead,
			Detail: fmt.Sprintf("no traffic from peer for %v", idle),
		})
		s.Abort("peer dead")
		return
	}
	if idle >= iv {
		s.metrics.Count("session.keepalive_sent", 1)
		s.transmitPDU(&wire.PDU{Header: wire.Header{Type: wire.TKeepalive}})
	}
	s.kaTimer.Reset(iv)
}
