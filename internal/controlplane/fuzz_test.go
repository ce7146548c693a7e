package controlplane

import (
	"testing"

	"adaptive/internal/wire"
	"adaptive/internal/wire/wiretest"
)

// Structural edge cases: empty input, a bare tag, a truncated value, a length
// overrunning the buffer, a truncated PDU entry, and a known tag of the wrong
// width.
var edgeSeeds = [][]byte{{}, {0, 1}, {0, 1, 0, 4, 0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	{0, 26, 0, 3, 1, 2, 3}, {0, 2, 0, 2, 1, 2}}

// FuzzDecodeRecord holds the hand-off record — reassembled from TControl
// chunks any host that reaches the SAP can send — to the shared document
// contract.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeRecord(42, sampleHandoff()))
	empty := sampleHandoff()
	empty.Unacked, empty.RcvBuf, empty.SendQ = nil, nil, nil
	f.Add(EncodeRecord(7, empty))
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	decode := func(raw []byte) (record, error) {
		epoch, h, err := DecodeRecord(raw)
		if err != nil {
			return record{}, err
		}
		return record{epoch: epoch, Handoff: *h}, nil
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, decode, func(r record) []byte { return EncodeRecord(r.epoch, &r.Handoff) })
	})
}

// FuzzDecodeControl holds the control-plane channel's decoder — the payload
// of every TControl PDU from the network — to the shared document contract.
func FuzzDecodeControl(f *testing.F) {
	encode := func(m control) []byte {
		fs := m.fields()
		return wire.Append(nil, fs[:])
	}
	decode := func(raw []byte) (control, error) {
		var m control
		fs := m.fields()
		err := wire.Decode(raw, fs[:])
		return m, err
	}
	for _, m := range []control{
		{Type: ctlChunk, Conn: 7, Epoch: 2, Count: 3, Data: EncodeRecord(2, sampleHandoff())[:64]},
		{Type: ctlOwner, Conn: 7, Epoch: 2, Host: 2, Port: 7700},
	} {
		f.Add(encode(m))
	}
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, decode, encode)
	})
}
