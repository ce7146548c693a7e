package session

import (
	"errors"
	"time"

	"adaptive/internal/conn"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// This file is the session half of cross-host migration (the control plane's
// "fleet-scale segue"): a session can freeze its egress, export everything
// the paper's TransferState discipline keeps outside the mechanisms — plus
// the unsent send queue and the mechanism configuration — as a Handoff, and
// a session on another host can import that Handoff and resume the transfer
// with the same sequence space, retransmission buffer, and meters.

// ErrMigrated reports an operation on a session that has been handed off to
// another host.
var ErrMigrated = errors.New("session: migrated to another host")

// HandoffPDU is one buffered data PDU in a Handoff: a retransmission-buffer
// entry (Unacked) or a reassembly entry (RcvBuf). Payload is an owned copy.
type HandoffPDU struct {
	Seq     uint32
	Flags   uint8
	Aux     uint16
	Payload []byte
}

func handoffPDU(seq uint32, p *wire.PDU) HandoffPDU {
	return HandoffPDU{Seq: seq, Flags: p.Flags, Aux: p.Aux,
		Payload: append([]byte(nil), p.PayloadBytes()...)}
}

// HandoffSeg is one unsent send-queue segment.
type HandoffSeg struct {
	Data []byte
	EOM  bool
}

// Handoff is the complete portable state of a live session: everything a
// target host needs to continue the transfer without loss or duplication.
// The control plane serializes it into an epoch-stamped handoff record.
type Handoff struct {
	ConnID    uint32
	LocalPort uint16
	PeerPort  uint16
	PeerNet   netapi.Addr
	Spec      *mechanism.Spec

	// Shared transfer state (mechanism.TransferState scalars).
	SndUna    uint32
	SndNxt    uint32
	RcvNxt    uint32
	RcvBufCap int
	SRTT      time.Duration
	RTTVar    time.Duration
	RTO       time.Duration

	// Counters strategies share.
	Retransmissions uint64
	FECRecovered    uint64
	GapsAbandoned   uint64

	// Session-level meters (UNITES whitebox continuity across hosts).
	SentPDUs       uint64
	SentBytes      uint64
	RecvPDUs       uint64
	RecvBytes      uint64
	DeliveredMsg   uint64
	DeliveredBytes uint64
	Segues         uint64

	PeerAdvert int

	// Buffered data.
	Unacked []HandoffPDU // in-flight, unacknowledged data PDUs
	RcvBuf  []HandoffPDU // out-of-order reassembly entries
	SendQ   []HandoffSeg // queued, never-transmitted segments
}

// FreezeEgress halts all transmission: the pump refuses to emit, and the
// retransmission, pacing, and keepalive timers are cancelled. Arriving PDUs
// are still processed (late acks during the handoff window shrink the record)
// but produce no egress. Idempotent.
func (s *Session) FreezeEgress() {
	if s.frozen {
		return
	}
	s.frozen = true
	s.cancelTimers()
	s.metrics.Count("session.migrate_freeze", 1)
}

// ResumeEgress lifts a freeze (migration abort on the source, or routing
// flip completion on the target) and restarts loss detection and the pump.
func (s *Session) ResumeEgress() {
	if !s.frozen || s.done {
		return
	}
	s.frozen = false
	if s.state.InFlight() > 0 && recoveryUsesRTO(s.slots.Recovery) {
		s.armRTO()
	}
	if iv := s.spec.KeepaliveInterval; iv > 0 {
		// Re-base the dead-peer idle clock: a freeze can outlast
		// DeadInterval (a slow handoff), and silence while probes were
		// suppressed is not evidence the peer died. The peer gets a full
		// DeadInterval from resume before it can be declared dead.
		s.lastHeard = s.clock.Now()
		if s.kaTimer != nil {
			s.kaTimer.Reset(iv)
		} else {
			s.startKeepalive()
		}
	}
	s.pump()
}

// Frozen reports whether egress is currently frozen.
func (s *Session) Frozen() bool { return s.frozen }

// Retire ends the source copy of a migrated session: the hand-off's arm of the
// terminal transition. Every subsequent Send fails with ErrMigrated; the
// husk remains valid for reading meters.
func (s *Session) Retire() {
	s.FreezeEgress()
	s.retired = true
	s.metrics.Count("session.migrate_retired", 1)
	s.terminate()
}

// Retired reports whether the session has been handed off.
func (s *Session) Retired() bool { return s.retired }

// ExportHandoff snapshots the session into a portable Handoff. The session
// must be frozen first. Mechanism-private buffers that cannot travel are
// flushed the same way a local segue flushes them: a partial FEC parity
// group is emitted to the peer and pending delayed acks are sent, so the
// record holds only the shared TransferState the paper's segue discipline
// already keeps outside the mechanisms.
func (s *Session) ExportHandoff() *Handoff {
	if f, ok := s.slots.Recovery.(parityFlusher); ok {
		f.FlushParity(s.env())
	}
	if f, ok := s.slots.Recovery.(ackFlusher); ok {
		f.FlushAck(s.env())
	}
	// Flush any sequencing holdback into the reassembly picture is not
	// needed: held-back data lives in RcvBuf until DrainInOrder releases
	// it, and Sequenced holds only post-drain out-of-window arrivals that
	// Skip released early — those were already delivered.
	st := s.state
	h := &Handoff{
		ConnID:          s.connID,
		LocalPort:       s.localPort,
		PeerPort:        s.peerPort,
		PeerNet:         s.peerNet,
		Spec:            s.spec,
		SndUna:          st.SndUna,
		SndNxt:          st.SndNxt,
		RcvNxt:          st.RcvNxt,
		RcvBufCap:       st.RcvBufCap,
		SRTT:            st.SRTT,
		RTTVar:          st.RTTVar,
		RTO:             st.RTO,
		Retransmissions: st.Retransmissions,
		FECRecovered:    st.FECRecovered,
		GapsAbandoned:   st.GapsAbandoned,
		SentPDUs:        s.SentPDUs,
		SentBytes:       s.SentBytes,
		RecvPDUs:        s.RecvPDUs,
		RecvBytes:       s.RecvBytes,
		DeliveredMsg:    s.DeliveredMsg,
		DeliveredBytes:  s.DeliveredBytes,
		Segues:          s.segues,
		PeerAdvert:      s.peerAdvert,
	}
	// Both buffers are walked in ascending sequence order, so the record is
	// byte-identical across same-seed runs.
	if n := st.Unacked.Len(); n > 0 {
		h.Unacked = make([]HandoffPDU, 0, n)
		for seq, e := range st.Unacked.All() {
			h.Unacked = append(h.Unacked, handoffPDU(seq, e.PDU))
		}
	}
	if n := st.RcvBuf.Len(); n > 0 {
		h.RcvBuf = make([]HandoffPDU, 0, n)
		for seq, e := range st.RcvBuf.All() {
			h.RcvBuf = append(h.RcvBuf, handoffPDU(seq, e.PDU))
		}
	}
	if n := s.queuedLen(); n > 0 {
		h.SendQ = make([]HandoffSeg, 0, n)
		for i := s.sendQH; i < len(s.sendQ); i++ {
			q := s.sendQ[i]
			h.SendQ = append(h.SendQ, HandoffSeg{
				Data: append([]byte(nil), q.msg.Bytes()...),
				EOM:  q.eom,
			})
		}
	}
	s.metrics.Count("session.migrate_exported", 1)
	return h
}

// ImportHandoff loads a Handoff into a freshly synthesized session on the
// target host and brings the connection up in the established state without
// a handshake (the peer already completed one with the source; the adopted
// side replaces its connection manager with an established implicit one —
// close and FIN semantics are shared across all managers). Egress stays
// frozen: the control plane calls ResumeEgress once the routing flip is
// acknowledged, so the old and new owners can never transmit concurrently.
//
// Buffered PDUs re-enter the retransmission buffer with a fresh local send
// timestamp and Retransmits=1 so Karn's rule exempts them from RTT sampling
// on a foreign clock.
func (s *Session) ImportHandoff(h *Handoff) {
	s.frozen = true
	st := s.state
	st.SndUna = h.SndUna
	st.SndNxt = h.SndNxt
	st.RcvNxt = h.RcvNxt
	if h.RcvBufCap > 0 {
		st.RcvBufCap = h.RcvBufCap
	}
	st.SRTT = h.SRTT
	st.RTTVar = h.RTTVar
	if h.RTO > 0 {
		st.RTO = h.RTO
	}
	st.Retransmissions = h.Retransmissions
	st.FECRecovered = h.FECRecovered
	st.GapsAbandoned = h.GapsAbandoned
	s.SentPDUs = h.SentPDUs
	s.SentBytes = h.SentBytes
	s.RecvPDUs = h.RecvPDUs
	s.RecvBytes = h.RecvBytes
	s.DeliveredMsg = h.DeliveredMsg
	s.DeliveredBytes = h.DeliveredBytes
	s.segues = h.Segues
	if h.PeerAdvert > 0 {
		s.peerAdvert = h.PeerAdvert
	}
	now := s.clock.Now()
	for i := range h.Unacked {
		hp := &h.Unacked[i]
		p := wire.GetPDU()
		p.Type = wire.TData
		p.Seq = hp.Seq
		p.Flags = hp.Flags
		p.Aux = hp.Aux
		if len(hp.Payload) > 0 {
			m := message.AllocPooled(len(hp.Payload), message.DefaultHeadroom)
			copy(m.Bytes(), hp.Payload)
			p.Payload = m
		}
		e := st.NewSent(p, now)
		e.Retransmits = 1 // Karn: never RTT-time a PDU sent by another host
		if !st.Unacked.Set(hp.Seq, e) {
			st.FreeSent(e) // a record spanning more than any window: not ours to honour
		}
	}
	for i := range h.RcvBuf {
		hp := &h.RcvBuf[i]
		p := wire.GetPDU()
		p.Type = wire.TData
		p.Seq = hp.Seq
		p.Flags = hp.Flags
		p.Aux = hp.Aux
		if len(hp.Payload) > 0 {
			m := message.AllocPooled(len(hp.Payload), message.DefaultHeadroom)
			copy(m.Bytes(), hp.Payload)
			p.Payload = m
		}
		if r := st.NewRecv(p, now, false); !st.RcvBuf.Set(hp.Seq, r) {
			st.FreeRecv(r)
		}
	}
	for i := range h.SendQ {
		seg := &h.SendQ[i]
		m := message.AllocPooled(len(seg.Data), message.DefaultHeadroom)
		copy(m.Bytes(), seg.Data)
		s.pushSeg(queuedSeg{msg: m, eom: seg.EOM})
	}
	// Adopt an established connection: the handshake happened on the
	// source host; only the shared close protocol matters from here on.
	adopted := conn.NewImplicit()
	s.slots.Conn = adopted
	adopted.StartPassive(s.env())
	// Keepalive state starts fresh on the adopting host: the last-heard
	// timestamp from the source host's clock does not travel (it is
	// meaningless here), and leaving the zero value would count the entire
	// local uptime as peer silence.
	s.lastHeard = now
	s.metrics.Count("session.migrate_imported", 1)
}

// RebindPeer repoints the session's network-level peer (the surviving end's
// view of a migrated remote). Subsequent egress — acks, NAKs, data — goes to
// the new owner.
func (s *Session) RebindPeer(addr netapi.Addr) {
	s.peerNet = addr
	s.metrics.Count("session.peer_rebound", 1)
}
