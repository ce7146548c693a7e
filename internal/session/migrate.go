package session

import (
	"errors"

	"adaptive/internal/conn"
	"adaptive/internal/mechanism"
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

// pdu rebuilds the buffered data PDU on the importing host, from c's lists.
func (hp *HandoffPDU) pdu(c *wire.Cache) *wire.PDU {
	p := c.GetPDU()
	p.Type = wire.TData
	p.Seq = hp.Seq
	p.Flags = hp.Flags
	p.Aux = hp.Aux
	if len(hp.Payload) > 0 {
		p.Payload = c.Messages().PooledFromBytes(hp.Payload)
	}
	return p
}

// HandoffSeg is one unsent send-queue segment.
type HandoffSeg struct {
	Data []byte
	EOM  bool
}

// Handoff is the complete portable state of a live session: everything a
// target host needs to continue the transfer without loss or duplication.
// The control plane serializes it into an epoch-stamped handoff record. Its
// scalars are the session's own declarations carried by value — it adds none.
type Handoff struct {
	Identity
	Spec *mechanism.Spec

	mechanism.Portable // sequence edges, RTT estimate, peer advert, shared counters
	Meters             // UNITES whitebox continuity across hosts

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
	if s.state.InFlight() > 0 && s.slots.Recovery.UsesRTO() {
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
	s.slots.Recovery.Handover(s.env())
	// Flush any sequencing holdback into the reassembly picture is not
	// needed: held-back data lives in RcvBuf until DrainInOrder releases
	// it, and Sequenced holds only post-drain out-of-window arrivals that
	// Skip released early — those were already delivered.
	st := s.state
	h := &Handoff{Identity: s.id, Spec: s.spec, Portable: st.Portable, Meters: s.Meters}
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
	// A record that lacks one of these (zero) keeps what the Spec gave the
	// fresh session: a zero RTO would re-arm the timer in a tight loop, a
	// zero advert or buffer would close the window for good.
	p := h.Portable
	if p.RcvBufCap <= 0 {
		p.RcvBufCap = st.RcvBufCap
	}
	if p.RTO <= 0 {
		p.RTO = st.RTO
	}
	if p.PeerAdvert <= 0 {
		p.PeerAdvert = st.PeerAdvert
	}
	st.Portable, s.Meters = p, h.Meters
	now := s.clock.Now()
	for i := range h.Unacked {
		e := st.NewSent(h.Unacked[i].pdu(st.Cache), now)
		e.Retransmits = 1 // Karn: never RTT-time a PDU sent by another host
		if !st.Unacked.Set(e.PDU.Seq, e) {
			st.FreeSent(e) // a record spanning more than any window: not ours to honour
		}
	}
	for i := range h.RcvBuf {
		if r := st.NewRecv(h.RcvBuf[i].pdu(st.Cache), now, false); !st.RcvBuf.Set(r.PDU.Seq, r) {
			st.FreeRecv(r)
		}
	}
	for i := range h.SendQ {
		s.pushSeg(queuedSeg{msg: s.msgs().PooledFromBytes(h.SendQ[i].Data), eom: h.SendQ[i].EOM})
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
	s.id.PeerNet = addr
	s.metrics.Count("session.peer_rebound", 1)
}
