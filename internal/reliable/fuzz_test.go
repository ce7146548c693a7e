package reliable

import (
	"bytes"
	"errors"
	"testing"

	"adaptive/internal/message"
	"adaptive/internal/wire"
	"adaptive/internal/wire/wiretest"
)

// FuzzDecodeNakList holds the NAK list — what any peer can send to every
// selective-repeat and FEC-hybrid sender — to the shared document contract
// over a decoded NAK PDU: the list a NAK packet decodes to re-encodes, through
// EncodeNak, to a packet that decodes to the same list, and no header count
// makes the list longer than maxNakList.
func FuzzDecodeNakList(f *testing.F) {
	packet := func(p *wire.PDU) []byte {
		var out []byte
		if err := wire.EncodeTo(p, wire.CkCRC32, func(pkt []byte) error {
			out = bytes.Clone(pkt)
			return nil
		}); err != nil {
			f.Fatal(err)
		}
		p.ReleasePayload()
		return out
	}
	encode := func(list []uint32) []byte { return packet(EncodeNak(nil, list)) }
	decode := func(raw []byte) ([]uint32, error) {
		var p wire.PDU
		if err := wire.DecodeInto(raw, &p); err != nil {
			return nil, err
		}
		defer p.ReleasePayload()
		if p.Type != wire.TNak {
			return nil, errors.New("not a NAK")
		}
		return DecodeNakList(&p, nil), nil
	}

	var full []uint32
	for q := uint32(0); q < maxNakList; q++ {
		full = append(full, q*3)
	}
	f.Add(encode(nil))
	f.Add(encode([]uint32{7}))
	f.Add(encode(full))
	// Forged counts: more entries claimed than carried, and more than any
	// sender lists.
	f.Add(packet(&wire.PDU{Header: wire.Header{Type: wire.TNak, Aux: 5},
		Payload: message.PooledFromBytes(make([]byte, 8))}))
	f.Add(packet(&wire.PDU{Header: wire.Header{Type: wire.TNak, Aux: 1000},
		Payload: message.PooledFromBytes(make([]byte, 4000))}))
	f.Add(packet(&wire.PDU{Header: wire.Header{Type: wire.TAck, Aux: 1}}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if list, _ := wiretest.Contract(t, raw, decode, encode); len(list) > maxNakList {
			t.Fatalf("decoded %d sequences, cap is %d", len(list), maxNakList)
		}
	})
}
