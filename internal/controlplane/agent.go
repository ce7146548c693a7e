package controlplane

import (
	"fmt"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/netapi"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// Control-plane messages ride TControl PDUs with a TLV payload, so they share
// the data path's framing, checksum, and layer traversal in both harnesses.
const (
	ctlChunk    uint8 = 1 // handoff record fragment (source → target)
	ctlChunkAck uint8 = 2 // fragment receipt (target → source)
	ctlOwner    uint8 = 3 // routing flip: new owner announcement (target → peer)
	ctlOwnerAck uint8 = 4 // flip acknowledged; fence installed (peer → target)
)

// control is one control-plane message. A field its type does not carry is
// zero and stays off the wire.
type control struct {
	Type  uint8
	Conn  uint32
	Epoch uint64
	Idx   uint16 // chunk, chunk ack: chunk index, sent even when 0
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
		{Tag: 4, Form: wire.U16, At: &m.Idx, Omit: m.Idx == 0 && m.Type != ctlChunk && m.Type != ctlChunkAck},
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
	// ctlRetryEvery paces retransmission of unacked chunks and unacked
	// ownership flips; ctlRetries bounds them before the migration is
	// declared failed and rolled back.
	ctlRetryEvery = 40 * time.Millisecond
	ctlRetries    = 50

	// What a host will hold for hand-offs still arriving — any host that
	// reaches the SAP can start one. A record is at most maxRecordBytes (the
	// source refuses to send a larger one), at most maxInbound reassemblies
	// are open at once, and one that has not completed when its sender must
	// have given up (inboundHorizon) is dropped.
	maxRecordBytes = 16 << 20
	maxInbound     = 16
	inboundHorizon = ctlRetries * ctlRetryEvery
)

// Agent is a host's control-plane arm: it executes handoffs the controller
// decides. The source side freezes and exports the session and streams the
// epoch-stamped record in acked chunks; the target side reassembles, adopts,
// announces the routing flip to the transfer peer, and resumes egress only
// after the peer's fence is confirmed — so old-epoch packets are rejected and
// no instant ever has two live owners.
type Agent struct {
	ctl   *Controller
	stack *protograph.Stack
	host  netapi.HostID

	out    map[uint32]*outboundMigration
	in     map[uint32]*inboundMigration
	adopts map[uint32]*adoption

	// OnAdopt is invoked when this host adopts a migrated session, before
	// egress resumes — install delivery callbacks here.
	OnAdopt func(s *session.Session)

	// Counters (single provider loop; read after Wait in tests).
	CtlSent     uint64
	CtlRecv     uint64
	HandoffsOut uint64
	HandoffsIn  uint64
}

type outboundMigration struct {
	epoch   uint64
	target  netapi.Addr
	sess    *session.Session
	chunks  [][]byte
	acked   []bool
	pending int
	tries   int
	timer   *event.Event
}

type inboundMigration struct {
	epoch     uint64
	from      netapi.Addr
	chunks    [][]byte
	remaining int
	expiry    *event.Event
}

type adoption struct {
	epoch     uint64
	sess      *session.Session
	peer      netapi.Addr
	tries     int
	timer     *event.Event
	completed bool
}

// NewAgent installs a control-plane agent on a host's stack and enrolls the
// host with the controller under the given capacity budget (<= 0 means
// unlimited).
func NewAgent(ctl *Controller, stack *protograph.Stack, capacity int) *Agent {
	a := &Agent{
		ctl:    ctl,
		stack:  stack,
		host:   stack.LocalAddr().Host,
		out:    make(map[uint32]*outboundMigration),
		in:     make(map[uint32]*inboundMigration),
		adopts: make(map[uint32]*adoption),
	}
	stack.ControlHandler = a.onControl
	stack.OnTerminal(a.sessionEnded)
	ctl.enroll(a, capacity)
	return a
}

// --- source side ---

// beginHandoff freezes the session, exports it, and starts streaming the
// epoch-stamped record to the target host's agent.
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

	om := &outboundMigration{epoch: epoch, target: target, sess: sess}
	for off := 0; off < len(raw); off += chunkSize {
		end := off + chunkSize
		if end > len(raw) {
			end = len(raw)
		}
		om.chunks = append(om.chunks, raw[off:end])
	}
	om.acked = make([]bool, len(om.chunks))
	om.pending = len(om.chunks)
	a.out[connID] = om
	a.HandoffsOut++

	var resend func()
	resend = func() {
		if a.out[connID] != om || om.pending == 0 {
			return
		}
		if om.tries >= ctlRetries {
			// Target unreachable: give the lease back to the source.
			a.ctl.failMigration(connID, epoch)
			return
		}
		om.tries++
		for i, ch := range om.chunks {
			if !om.acked[i] {
				a.sendChunk(connID, om, i, ch)
			}
		}
		om.timer = a.stack.Timers().Schedule(ctlRetryEvery, resend)
	}
	resend()
	return nil
}

func (a *Agent) sendChunk(connID uint32, om *outboundMigration, idx int, data []byte) {
	a.transmitControl(om.target, &control{Type: ctlChunk, Conn: connID, Epoch: om.epoch,
		Idx: uint16(idx), Count: uint16(len(om.chunks)), Data: data})
}

// takeOut ends the bookkeeping of connID's outbound hand-off, if there is one,
// and returns it: the resend timer is canceled and the entry is gone.
func (a *Agent) takeOut(connID uint32) *outboundMigration {
	om := a.out[connID]
	if om != nil {
		if om.timer != nil {
			om.timer.Cancel()
		}
		delete(a.out, connID)
	}
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
// still in flight fails (its source is gone); a finished or pending adoption
// is forgotten; and a placement this host holds the lease for is released.
func (a *Agent) sessionEnded(s *session.Session) {
	connID := s.ConnID()
	if om := a.takeOut(connID); om != nil {
		a.ctl.failMigration(connID, om.epoch)
	}
	a.ctl.release(connID, a.host)
	if ad := a.adopts[connID]; ad != nil {
		if ad.timer != nil {
			ad.timer.Cancel()
		}
		delete(a.adopts, connID)
	}
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
	a.CtlRecv++
	var m control
	if f := m.fields(); wire.Decode(p.PayloadBytes(), f[:]) != nil || m.Conn == 0 {
		return // truncated or malformed: none of it is acted on
	}
	switch m.Type {
	case ctlChunk:
		a.onChunk(m.Conn, m.Epoch, int(m.Idx), int(m.Count), m.Data, from)
	case ctlChunkAck:
		a.onChunkAck(m.Conn, m.Epoch, int(m.Idx))
	case ctlOwner:
		a.onOwner(m.Conn, m.Epoch, netapi.Addr{Host: netapi.HostID(m.Host), Port: m.Port}, from)
	case ctlOwnerAck:
		a.onOwnerAck(m.Conn, m.Epoch)
	}
}

// --- target side ---

func (a *Agent) onChunk(connID uint32, epoch uint64, idx, count int, data []byte, from netapi.Addr) {
	// A completed adoption still acks retried chunks.
	if ad := a.adopts[connID]; ad != nil && ad.epoch == epoch {
		a.ackChunk(connID, epoch, idx, from)
		return
	}
	im := a.in[connID]
	if im != nil && im.epoch > epoch {
		return // stale migration attempt
	}
	if im == nil || im.epoch < epoch {
		if count <= 0 || count*chunkSize > maxRecordBytes || (im == nil && len(a.in) >= maxInbound) {
			a.ctl.count(&a.ctl.handoffsRefused)
			return
		}
		a.dropInbound(connID) // the older attempt this one supersedes
		im = &inboundMigration{
			epoch:     epoch,
			from:      from,
			chunks:    make([][]byte, count),
			remaining: count,
		}
		im.expiry = a.stack.Timers().Schedule(inboundHorizon, func() {
			if a.in[connID] == im {
				a.dropInbound(connID)
				a.ctl.count(&a.ctl.handoffsExpired)
			}
		})
		a.in[connID] = im
	}
	if idx < 0 || idx >= len(im.chunks) || len(data) > chunkSize {
		return
	}
	if im.chunks[idx] == nil {
		im.chunks[idx] = append([]byte(nil), data...)
		im.remaining--
	}
	a.ackChunk(connID, epoch, idx, from)
	if im.remaining > 0 {
		return
	}
	a.dropInbound(connID)
	var raw []byte
	for _, ch := range im.chunks {
		raw = append(raw, ch...)
	}
	recEpoch, h, err := DecodeRecord(raw)
	if err != nil || recEpoch != epoch {
		return // source retries; persistent corruption rolls back at the source
	}
	sess, err := a.stack.AdoptSession(h)
	if err != nil {
		return
	}
	a.HandoffsIn++
	ad := &adoption{epoch: epoch, sess: sess, peer: h.PeerNet}
	a.adopts[connID] = ad
	if a.OnAdopt != nil {
		a.OnAdopt(sess)
	}
	// Announce the routing flip to the transfer peer; egress stays frozen
	// until the peer confirms its fence, so the old and new owners can never
	// transmit concurrently.
	var announce func()
	announce = func() {
		if a.adopts[connID] != ad || ad.completed {
			return
		}
		if ad.tries >= ctlRetries {
			sess.Abort("adoption never confirmed by the peer")
			a.ctl.failMigration(connID, epoch)
			return
		}
		ad.tries++
		a.transmitControl(ad.peer, &control{Type: ctlOwner, Conn: connID, Epoch: epoch,
			Host: uint32(a.host), Port: a.stack.LocalAddr().Port})
		ad.timer = a.stack.Timers().Schedule(ctlRetryEvery, announce)
	}
	announce()
}

// dropInbound forgets connID's inbound reassembly, if there is one.
func (a *Agent) dropInbound(connID uint32) {
	if im := a.in[connID]; im != nil {
		im.expiry.Cancel()
		delete(a.in, connID)
	}
}

func (a *Agent) ackChunk(connID uint32, epoch uint64, idx int, to netapi.Addr) {
	a.transmitControl(to, &control{Type: ctlChunkAck, Conn: connID, Epoch: epoch, Idx: uint16(idx)})
}

func (a *Agent) onChunkAck(connID uint32, epoch uint64, idx int) {
	om := a.out[connID]
	if om == nil || om.epoch != epoch || idx < 0 || idx >= len(om.acked) {
		return
	}
	if !om.acked[idx] {
		om.acked[idx] = true
		om.pending--
		if om.pending == 0 && om.timer != nil {
			om.timer.Cancel()
		}
	}
}

// onOwnerAck completes the migration on the target: the peer's fence is in
// place, so the adopted session may own the egress.
func (a *Agent) onOwnerAck(connID uint32, epoch uint64) {
	ad := a.adopts[connID]
	if ad == nil || ad.epoch != epoch || ad.completed {
		return
	}
	ad.completed = true
	if ad.timer != nil {
		ad.timer.Cancel()
	}
	ad.sess.ResumeEgress()
	a.ctl.completeMigration(connID, a.host, epoch)
}

// --- peer side ---

// onOwner handles a routing flip at the transfer peer: install the epoch
// fence (atomically rejecting any later packet from the old owner), repoint
// the session's egress at the new owner, and confirm.
func (a *Agent) onOwner(connID uint32, epoch uint64, owner netapi.Addr, from netapi.Addr) {
	// SetOwner refuses only an epoch the fence has already reached or
	// passed, so a refused update is re-acknowledged like an applied one: its
	// sender is retrying a flip whose first acknowledgement was lost.
	if a.stack.SetOwner(connID, owner, epoch) {
		if sess := a.stack.Session(connID); sess != nil {
			sess.RebindPeer(owner)
		}
	}
	a.transmitControl(from, &control{Type: ctlOwnerAck, Conn: connID, Epoch: epoch})
}

func (a *Agent) transmitControl(to netapi.Addr, m *control) {
	f := m.fields()
	a.stack.TransmitDoc(wire.TControl, f[:], to)
	a.CtlSent++
}
