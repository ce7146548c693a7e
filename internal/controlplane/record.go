// Package controlplane is the per-deployment control plane for multi-node
// ADAPTIVE: a controller holding the placement/routing view (session → host
// endpoint), admission control against per-host capacity budgets, and the
// lease/epoch authority that guarantees exactly one host owns a session's
// egress at any instant; plus the per-host agent that executes cross-host
// session migration — the paper's segue operation lifted to fleet scale.
//
// The split follows the adaptation-orchestration pattern of the related
// work: a small authority decides (Controller), the data path executes
// (Agent, protograph fences, session freeze/export/import).
package controlplane

import (
	"encoding/binary"
	"fmt"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// Handoff-record wire format (DESIGN §5.19): a TLV document reusing the
// signaling channel's tag/length/value encoding. Scalar tags appear once, in
// ascending tag order; buffer tags repeat, one entry per PDU or segment, in
// ascending sequence order so the record — and therefore the chunk stream
// carrying it — is byte-identical across same-seed runs. Tags are stable wire
// artifacts: never renumber.
const (
	recTagSpec    uint16 = 7  // mechanism.EncodeSpec blob
	recTagUnacked uint16 = 26 // repeated: seq u32 | flags u8 | aux u16 | payload
	recTagRcvBuf  uint16 = 27 // repeated: same entry layout as recTagUnacked
	recTagSendQ   uint16 = 28 // repeated: eom u8 | data
)

// record is what the document holds: the lease epoch the controller stamped
// and the session's portable state.
type record struct {
	epoch uint64
	session.Handoff
}

// scalars is the record's tag table: entry i is where the scalar with tag i
// lives, and its type is its width on the wire (uint16: 2 bytes; uint32,
// HostID and int: 4; uint64 and Duration: 8, nanoseconds). A scalar that
// travels is a field of the session's portable structs plus one line here.
func (r *record) scalars() [recTagUnacked]any {
	return [...]any{
		1:  &r.epoch,
		2:  &r.ConnID,
		3:  &r.LocalPort,
		4:  &r.PeerPort,
		5:  &r.PeerNet.Host,
		6:  &r.PeerNet.Port,
		8:  &r.SndUna,
		9:  &r.SndNxt,
		10: &r.RcvNxt,
		11: &r.RcvBufCap,
		12: &r.SRTT,
		13: &r.RTTVar,
		14: &r.RTO,
		15: &r.Retransmissions,
		16: &r.FECRecovered,
		17: &r.GapsAbandoned,
		18: &r.SentPDUs,
		19: &r.SentBytes,
		20: &r.RecvPDUs,
		21: &r.RecvBytes,
		22: &r.DeliveredMsg,
		23: &r.DeliveredBytes,
		24: &r.Segues,
		25: &r.PeerAdvert,
	}
}

func putPDUEntry(w *wire.TLVWriter, tag uint16, p *session.HandoffPDU) {
	buf := make([]byte, 7+len(p.Payload))
	binary.BigEndian.PutUint32(buf[0:], p.Seq)
	buf[4] = p.Flags
	binary.BigEndian.PutUint16(buf[5:], p.Aux)
	copy(buf[7:], p.Payload)
	w.Put(tag, buf)
}

func pduEntry(val []byte) (session.HandoffPDU, error) {
	if len(val) < 7 {
		return session.HandoffPDU{}, fmt.Errorf("controlplane: truncated PDU entry (%d bytes)", len(val))
	}
	return session.HandoffPDU{
		Seq:     binary.BigEndian.Uint32(val[0:]),
		Flags:   val[4],
		Aux:     binary.BigEndian.Uint16(val[5:]),
		Payload: append([]byte(nil), val[7:]...),
	}, nil
}

// EncodeRecord serializes an epoch-stamped handoff record.
func EncodeRecord(epoch uint64, h *session.Handoff) []byte {
	var w wire.TLVWriter
	r := record{epoch, *h}
	for i, at := range r.scalars() {
		tag := uint16(i)
		switch v := at.(type) {
		case *uint16:
			w.PutU16(tag, *v)
		case *uint32:
			w.PutU32(tag, *v)
		case *netapi.HostID:
			w.PutU32(tag, uint32(*v))
		case *int:
			w.PutU32(tag, uint32(*v))
		case *uint64:
			w.PutU64(tag, *v)
		case *time.Duration:
			w.PutU64(tag, uint64(*v))
		}
		if tag == recTagSpec {
			w.Put(tag, mechanism.EncodeSpec(h.Spec))
		}
	}
	for i := range h.Unacked {
		putPDUEntry(&w, recTagUnacked, &h.Unacked[i])
	}
	for i := range h.RcvBuf {
		putPDUEntry(&w, recTagRcvBuf, &h.RcvBuf[i])
	}
	for i := range h.SendQ {
		seg := &h.SendQ[i]
		buf := make([]byte, 1+len(seg.Data))
		if seg.EOM {
			buf[0] = 1
		}
		copy(buf[1:], seg.Data)
		w.Put(recTagSendQ, buf)
	}
	return w.Bytes()
}

// DecodeRecord parses an epoch-stamped handoff record.
func DecodeRecord(raw []byte) (epoch uint64, h *session.Handoff, err error) {
	var r record
	scalars := r.scalars()
	tlv := wire.NewTLVReader(raw)
	for {
		tag, val, ok, rerr := tlv.Next()
		if rerr != nil {
			return 0, nil, rerr
		}
		if !ok {
			break
		}
		switch tag {
		case recTagSpec:
			spec, serr := mechanism.DecodeSpec(val)
			if serr != nil {
				return 0, nil, fmt.Errorf("controlplane: handoff spec: %w", serr)
			}
			r.Spec = spec
		case recTagUnacked, recTagRcvBuf:
			e, perr := pduEntry(val)
			if perr != nil {
				return 0, nil, perr
			}
			if tag == recTagUnacked {
				r.Unacked = append(r.Unacked, e)
			} else {
				r.RcvBuf = append(r.RcvBuf, e)
			}
		case recTagSendQ:
			if len(val) < 1 {
				return 0, nil, fmt.Errorf("controlplane: truncated send-queue entry")
			}
			r.SendQ = append(r.SendQ, session.HandoffSeg{
				EOM:  val[0] == 1,
				Data: append([]byte(nil), val[1:]...),
			})
		default:
			if int(tag) >= len(scalars) {
				continue // a tag from a later version
			}
			switch v := scalars[tag].(type) {
			case *uint16:
				*v = wire.U16(val)
			case *uint32:
				*v = wire.U32(val)
			case *netapi.HostID:
				*v = netapi.HostID(wire.U32(val))
			case *int:
				*v = int(wire.U32(val))
			case *uint64:
				*v = wire.U64(val)
			case *time.Duration:
				*v = time.Duration(wire.U64(val))
			}
		}
	}
	if r.Spec == nil {
		return 0, nil, fmt.Errorf("controlplane: handoff record carries no spec")
	}
	if r.ConnID == 0 {
		return 0, nil, fmt.Errorf("controlplane: handoff record carries no connection id")
	}
	return r.epoch, &r.Handoff, nil
}
