package wire

import (
	"testing"

	"adaptive/internal/message"
)

// TestCodecZeroAlloc pins the per-PDU codec at zero heap allocations: the
// in-place EncodeTo fast path (pooled payload with headroom, scoped emit
// callback) under both checksums, and DecodeInto into a reused PDU. Every
// data packet crosses both, so one allocation here is one per packet.
func TestCodecZeroAlloc(t *testing.T) {
	emit := func([]byte) error { return nil }
	for _, ck := range []ChecksumKind{CkInternet, CkCRC32} {
		p := &PDU{Header: hdrForTest(), Payload: message.AllocPooled(1400, message.DefaultHeadroom)}
		pkt := encodeVia(t, p, ck)
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := EncodeTo(p, ck, emit); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("EncodeTo/%v: %v allocs/op, want 0", ck, allocs)
		}
		p.ReleasePayload()

		var q PDU
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := DecodeInto(pkt, &q); err != nil {
				t.Fatal(err)
			}
			q.ReleasePayload()
		}); allocs != 0 {
			t.Errorf("DecodeInto/%v: %v allocs/op, want 0", ck, allocs)
		}
	}
}
