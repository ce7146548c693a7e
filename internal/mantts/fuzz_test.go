package mantts

import (
	"encoding/hex"
	"testing"

	"adaptive/internal/mechanism"
	"adaptive/internal/wire"
	"adaptive/internal/wire/wiretest"
)

// Structural edge cases every document fuzzer starts from: empty input, a
// bare tag, a truncated value, a length overrunning the buffer, and a known
// tag of the wrong width.
var edgeSeeds = [][]byte{{}, {0, 1}, {0, 1, 0, 4, 0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0, 1, 0, 2, 1, 2}}

// FuzzDecodeRule holds the TSA rule codec to the shared document contract.
func FuzzDecodeRule(f *testing.F) {
	for _, r := range append([]Rule{*fullRule()}, t2ACD().TSA...) {
		f.Add(EncodeRule(&r))
	}
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, DecodeRule, EncodeRule)
	})
}

// FuzzDecodeACD holds the ACD codec (experiment T2) to the shared document
// contract.
func FuzzDecodeACD(f *testing.F) {
	raw, _ := hex.DecodeString(t2ACDHex)
	f.Add(raw)
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, DecodeACD, EncodeACD)
	})
}

// FuzzDecodeSignal holds the signaling channel's decoder — the payload of
// every TSignal PDU from the network — to the shared document contract.
func FuzzDecodeSignal(f *testing.F) {
	spec := mechanism.DefaultSpec()
	for _, sig := range []signal{
		{Type: sigReconfig, ConnID: 7, Spec: mechanism.EncodeSpec(&spec)},
		{Type: sigJoinInvite, ConnID: 7, Spec: []byte{0, 2, 0, 1, 3}, Group: 0x80000004, Port: 80},
		{Type: sigLeave, ConnID: 7},
		{Type: sigJoinAck, ConnID: 7},
		{Type: sigQualReport, ConnID: 7},
	} {
		f.Add(encodeSignal(sig))
	}
	for _, s := range edgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		wiretest.Contract(t, raw, decodeSignal, encodeSignal)
	})
}

// decodeSignal is Entity.onSignal's decode step.
func decodeSignal(raw []byte) (signal, error) {
	var sig signal
	f := sig.fields()
	err := wire.Decode(raw, f[:])
	return sig, err
}

func encodeSignal(sig signal) []byte {
	f := sig.fields()
	return wire.Append(nil, f[:])
}
