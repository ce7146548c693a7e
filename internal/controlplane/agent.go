package controlplane

import (
	"fmt"

	"adaptive/internal/event"
	"adaptive/internal/netapi"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// Control-plane messages ride TControl PDUs with a TLV payload on the stack's
// reliable channel (protograph.Stack.SendDoc), so they share the data path's
// framing, checksum, and layer traversal in both harnesses. Types 2 and 4 are
// not reused: they were the chunk and owner acknowledgments the channel
// replaced.
const (
	ctlChunk uint8 = 1 // handoff record fragment (source → target)
	ctlOwner uint8 = 3 // routing flip: new owner announcement (target → peer)
)

// control is one control-plane message. A field its type does not carry is
// zero and stays off the wire.
type control struct {
	Type  uint8
	Conn  uint32
	Epoch uint64
	Idx   uint16 // chunk: chunk index, sent even when 0
	Count uint16 // chunk: total chunks in the record
	Data  []byte // chunk: record bytes
	Host  uint32 // owner: the new owner's host
	Port  uint16 // owner: the new owner's SAP port
}

// fields is the control message's TLV table.
func (m *control) fields() [8]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.U8, At: &m.Type},
		{Tag: 2, Form: wire.U32, At: &m.Conn},
		{Tag: 3, Form: wire.U64, At: &m.Epoch},
		{Tag: 4, Form: wire.U16, At: &m.Idx, Omit: m.Idx == 0 && m.Type != ctlChunk},
		{Tag: 5, Form: wire.U16, At: &m.Count, Omit: m.Count == 0},
		{Tag: 6, Form: wire.Bytes, At: &m.Data, Omit: len(m.Data) == 0},
		{Tag: 7, Form: wire.U32, At: &m.Host, Omit: m.Host == 0},
		{Tag: 8, Form: wire.U16, At: &m.Port, Omit: m.Port == 0},
	}
}

const (
	// chunkSize keeps every chunk message well under the 1400-byte path MTU
	// after TLV framing and the wire header/trailer.
	chunkSize = 1024

	// What a host will hold for hand-offs still arriving — any host that
	// reaches the SAP can start one. A record is at most maxRecordBytes (the
	// source refuses to send a larger one), at most maxInbound reassemblies
	// are open at once, and one that has had no chunk for the channel's
	// give-up horizon (protograph.DocHorizon) is dropped: its sender has
	// given up.
	maxRecordBytes = 16 << 20
	maxInbound     = 16
)

// Agent is a host's control-plane arm: it executes handoffs the controller
// decides. The source side freezes and exports the session and streams the
// epoch-stamped record in chunks; the target side reassembles, adopts,
// announces the routing flip to the transfer peer, and resumes egress only
// after the peer has installed its fence — so old-epoch packets are rejected
// and no instant ever has two live owners.
type Agent struct {
	ctl   *Controller
	stack *protograph.Stack
	host  netapi.HostID

	out map[uint32]*outboundMigration
	in  map[uint32]*inboundMigration

	// OnAdopt is invoked when this host adopts a migrated session, before
	// egress resumes — install delivery callbacks here.
	OnAdopt func(s *session.Session)
}

type outboundMigration struct {
	epoch uint64
	sess  *session.Session
}

type inboundMigration struct {
	epoch      uint64
	raw        []byte // the record so far: chunks 0 .. got-1
	got, count int
	expiry     *event.Event
}

// NewAgent installs a control-plane agent on a host's stack and enrolls the
// host with the controller under the given capacity budget (<= 0 means
// unlimited).
func NewAgent(ctl *Controller, stack *protograph.Stack, capacity int) *Agent {
	a := &Agent{
		ctl:   ctl,
		stack: stack,
		host:  stack.LocalAddr().Host,
		out:   make(map[uint32]*outboundMigration),
		in:    make(map[uint32]*inboundMigration),
	}
	stack.ControlHandler = a.onControl
	stack.OnTerminal(a.sessionEnded)
	ctl.enroll(a, capacity)
	return a
}

// --- source side ---

// beginHandoff freezes the session, exports it, and queues the epoch-stamped
// record to the target host's agent. The channel delivers the chunks in
// order, a window at a time; if it gives up on the target, the lease goes back
// to the source.
func (a *Agent) beginHandoff(connID uint32, epoch uint64, target netapi.Addr) error {
	sess := a.stack.Session(connID)
	if sess == nil {
		return fmt.Errorf("controlplane: conn %d not on host %d", connID, a.host)
	}
	if _, busy := a.out[connID]; busy {
		return fmt.Errorf("controlplane: conn %d already handing off", connID)
	}
	sess.FreezeEgress()
	raw := EncodeRecord(epoch, sess.ExportHandoff())
	if len(raw) > maxRecordBytes {
		sess.ResumeEgress()
		return fmt.Errorf("controlplane: conn %d: handoff record of %d bytes exceeds the %d a target accepts", connID, len(raw), maxRecordBytes)
	}
	a.out[connID] = &outboundMigration{epoch: epoch, sess: sess}
	done := func(ok bool) {
		if !ok {
			a.ctl.failMigration(connID, epoch)
		}
	}
	count := (len(raw) + chunkSize - 1) / chunkSize
	for i := 0; i < count; i++ {
		a.send(target, &control{Type: ctlChunk, Conn: connID, Epoch: epoch, Idx: uint16(i), Count: uint16(count),
			Data: raw[i*chunkSize : min((i+1)*chunkSize, len(raw))]}, done)
	}
	return nil
}

// takeOut ends the bookkeeping of connID's outbound hand-off, if there is one,
// and returns it.
func (a *Agent) takeOut(connID uint32) *outboundMigration {
	om := a.out[connID]
	delete(a.out, connID)
	return om
}

// retireSource finishes the source side of a completed migration: the local
// copy goes through its terminal transition and answers every later Send with
// ErrMigrated.
func (a *Agent) retireSource(connID uint32) {
	if om := a.takeOut(connID); om != nil {
		om.sess.Retire()
	}
}

// sessionEnded is the agent's share of a session's terminal transition: a
// hand-off the session was part of has nothing left to move. An outbound one
// still in flight fails (its source is gone), and a placement this host holds
// the lease for is released.
func (a *Agent) sessionEnded(s *session.Session) {
	connID := s.ConnID()
	if om := a.takeOut(connID); om != nil {
		a.ctl.failMigration(connID, om.epoch)
	}
	a.ctl.release(connID, a.host)
}

// abortHandoff rolls a failed migration back: the source resumes egress with
// its retransmission state intact, as if the freeze were a long pause.
func (a *Agent) abortHandoff(connID uint32) {
	if om := a.takeOut(connID); om != nil {
		om.sess.ResumeEgress()
	}
}

// --- receive path ---

func (a *Agent) onControl(p *wire.PDU, from netapi.Addr) {
	defer p.ReleasePayload()
	var m control
	if f := m.fields(); p.Seq == 0 || wire.Decode(p.PayloadBytes(), f[:]) != nil || m.Conn == 0 {
		return // off the reliable channel, truncated or malformed: none of it is acted on
	}
	switch m.Type {
	case ctlChunk:
		a.onChunk(m.Conn, m.Epoch, int(m.Idx), int(m.Count), m.Data)
	case ctlOwner:
		// A routing flip at the transfer peer: install the epoch fence
		// (atomically rejecting any later packet from the old owner) and
		// repoint the session's egress at the new owner. The channel
		// acknowledges the update once this has run: that acknowledgement is
		// the new owner's confirmation.
		owner := netapi.Addr{Host: netapi.HostID(m.Host), Port: m.Port}
		if a.stack.SetOwner(m.Conn, owner, m.Epoch) {
			if sess := a.stack.Session(m.Conn); sess != nil {
				sess.RebindPeer(owner)
			}
		}
	}
}

// --- target side ---

// onChunk appends one chunk to its record; the channel delivers a source's
// chunks in order, so the record is complete at its last index. A chunk that
// cannot be taken — it would open a record over maxRecordBytes or a
// reassembly past maxInbound, it is over chunkSize, it continues a record this
// host refused or let expire, or it completes one that does not decode or
// adopt — fails the migration, so the source rolls back instead of waiting on
// a hand-off that will not complete.
func (a *Agent) onChunk(connID uint32, epoch uint64, idx, count int, data []byte) {
	im := a.in[connID]
	switch {
	case im != nil && im.epoch > epoch:
		return // a superseded attempt's straggler
	case idx == 0 && (im == nil || im.epoch < epoch):
		if count <= 0 || count*chunkSize > maxRecordBytes || (im == nil && len(a.in) >= maxInbound) {
			a.refuse(connID, epoch)
			return
		}
		a.dropInbound(connID) // the older attempt this one supersedes
		im = &inboundMigration{epoch: epoch, count: count}
		im.expiry = a.stack.Timers().Schedule(protograph.DocHorizon, func() {
			if a.in[connID] == im {
				a.dropInbound(connID)
				a.ctl.count(&a.ctl.handoffsExpired)
			}
		})
		a.in[connID] = im
	case im == nil || im.epoch != epoch || idx != im.got:
		a.ctl.failMigration(connID, epoch)
		return
	}
	if len(data) > chunkSize {
		a.refuse(connID, epoch)
		return
	}
	im.raw = append(im.raw, data...)
	if im.got++; im.got < im.count {
		im.expiry.Reset(protograph.DocHorizon)
		return
	}
	a.dropInbound(connID)
	recEpoch, h, err := DecodeRecord(im.raw)
	var sess *session.Session
	if err == nil && recEpoch == epoch {
		sess, _ = a.stack.AdoptSession(h)
	}
	if sess == nil {
		a.ctl.failMigration(connID, epoch)
		return
	}
	if a.OnAdopt != nil {
		a.OnAdopt(sess)
	}
	// Announce the routing flip to the transfer peer. Its channel
	// acknowledgement comes after the peer's fence is in place, so egress
	// stays frozen until then and the old and new owners never transmit
	// concurrently.
	a.send(h.PeerNet, &control{Type: ctlOwner, Conn: connID, Epoch: epoch,
		Host: uint32(a.host), Port: a.stack.LocalAddr().Port}, func(ok bool) {
		switch {
		case sess.Closed():
			// The adopted copy ended first: nothing to complete or roll back.
		case ok:
			sess.ResumeEgress()
			a.ctl.completeMigration(connID, a.host, epoch)
		default:
			sess.Abort("adoption never confirmed by the peer")
			a.ctl.failMigration(connID, epoch)
		}
	})
}

// refuse turns an inbound hand-off away: what was open of it is dropped and
// the migration fails.
func (a *Agent) refuse(connID uint32, epoch uint64) {
	a.dropInbound(connID)
	a.ctl.count(&a.ctl.handoffsRefused)
	a.ctl.failMigration(connID, epoch)
}

// dropInbound forgets connID's inbound reassembly, if there is one.
func (a *Agent) dropInbound(connID uint32) {
	if im := a.in[connID]; im != nil {
		im.expiry.Cancel()
		delete(a.in, connID)
	}
}

func (a *Agent) send(to netapi.Addr, m *control, done func(ok bool)) {
	f := m.fields()
	a.stack.SendDoc(wire.TControl, f[:], to, done)
}
