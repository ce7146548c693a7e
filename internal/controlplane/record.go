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
	"fmt"

	"adaptive/internal/mechanism"
	"adaptive/internal/session"
	"adaptive/internal/wire"
)

// Handoff-record wire format (DESIGN §5.19): a TLV document on the same codec
// as the signaling channel. Scalars appear once, in ascending tag order; the
// buffers repeat, one entry per PDU or segment, in ascending sequence order,
// so the record — and therefore the chunk stream carrying it — is
// byte-identical across same-seed runs.

// record is what the document holds: the lease epoch the controller stamped,
// the session's portable state, and its Spec as a mechanism.EncodeSpec blob.
type record struct {
	epoch uint64
	spec  []byte
	session.Handoff
}

// fields is the record's tag table. A scalar that travels is a field of the
// session's portable structs plus one line here.
func (r *record) fields() [28]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.U64, At: &r.epoch},
		{Tag: 2, Form: wire.U32, At: &r.ConnID},
		{Tag: 3, Form: wire.U16, At: &r.LocalPort},
		{Tag: 4, Form: wire.U16, At: &r.PeerPort},
		{Tag: 5, Form: wire.U32, At: &r.PeerNet.Host},
		{Tag: 6, Form: wire.U16, At: &r.PeerNet.Port},
		{Tag: 7, Form: wire.Bytes, At: &r.spec},
		{Tag: 8, Form: wire.U32, At: &r.SndUna},
		{Tag: 9, Form: wire.U32, At: &r.SndNxt},
		{Tag: 10, Form: wire.U32, At: &r.RcvNxt},
		{Tag: 11, Form: wire.U32, At: &r.RcvBufCap},
		{Tag: 12, Form: wire.U64, At: &r.SRTT},
		{Tag: 13, Form: wire.U64, At: &r.RTTVar},
		{Tag: 14, Form: wire.U64, At: &r.RTO},
		{Tag: 15, Form: wire.U64, At: &r.Retransmissions},
		{Tag: 16, Form: wire.U64, At: &r.FECRecovered},
		{Tag: 17, Form: wire.U64, At: &r.GapsAbandoned},
		{Tag: 18, Form: wire.U64, At: &r.SentPDUs},
		{Tag: 19, Form: wire.U64, At: &r.SentBytes},
		{Tag: 20, Form: wire.U64, At: &r.RecvPDUs},
		{Tag: 21, Form: wire.U64, At: &r.RecvBytes},
		{Tag: 22, Form: wire.U64, At: &r.DeliveredMsg},
		{Tag: 23, Form: wire.U64, At: &r.DeliveredBytes},
		{Tag: 24, Form: wire.U64, At: &r.Segues},
		{Tag: 25, Form: wire.U32, At: &r.PeerAdvert},
		{Tag: 26, Form: wire.Packed, At: &r.Unacked, Elem: pduFields},
		{Tag: 27, Form: wire.Packed, At: &r.RcvBuf, Elem: pduFields},
		{Tag: 28, Form: wire.Packed, At: &r.SendQ, Elem: segFields},
	}
}

// pduFields lays out a buffered PDU: seq u32 | flags u8 | aux u16 | payload.
func pduFields(at any) []wire.Field {
	p := at.(*session.HandoffPDU)
	return []wire.Field{{Form: wire.U32, At: &p.Seq}, {Form: wire.U8, At: &p.Flags},
		{Form: wire.U16, At: &p.Aux}, {Form: wire.Bytes, At: &p.Payload}}
}

// segFields lays out a queued segment: eom u8 | data.
func segFields(at any) []wire.Field {
	s := at.(*session.HandoffSeg)
	return []wire.Field{{Form: wire.U8, At: &s.EOM}, {Form: wire.Bytes, At: &s.Data}}
}

// EncodeRecord serializes an epoch-stamped handoff record.
func EncodeRecord(epoch uint64, h *session.Handoff) []byte {
	r := record{epoch: epoch, spec: mechanism.EncodeSpec(h.Spec), Handoff: *h}
	f := r.fields()
	return wire.Append(nil, f[:])
}

// DecodeRecord parses an epoch-stamped handoff record.
func DecodeRecord(raw []byte) (epoch uint64, h *session.Handoff, err error) {
	var r record
	f := r.fields()
	if err := wire.Decode(raw, f[:]); err != nil {
		return 0, nil, err
	}
	if r.Spec, err = mechanism.DecodeSpec(r.spec); err != nil {
		return 0, nil, fmt.Errorf("controlplane: handoff spec: %w", err)
	}
	if r.ConnID == 0 {
		return 0, nil, fmt.Errorf("controlplane: handoff record carries no connection id")
	}
	return r.epoch, &r.Handoff, nil
}
