package mechanism

import (
	"testing"

	"adaptive/internal/wire/wiretest"
)

// FuzzDecodeSpec throws arbitrary bytes at the SCS decoder, which runs on
// every CONNREQ, CONNACK and implicit-config PDU from the network. Beyond the
// shared contract, a decoded Spec is inside Normalize's bounds: normalizing
// it again changes nothing, and its MSS is at most MaxMSS.
func FuzzDecodeSpec(f *testing.F) {
	def, full := DefaultSpec(), fullSpec()
	f.Add(EncodeSpec(&def))
	f.Add(EncodeSpec(&full))
	// A peer's proposal that once sized the listener's FEC buffers: 4 GiB.
	huge := full
	huge.MSS = 1<<32 - 1
	f.Add(EncodeSpec(&huge))
	f.Add([]byte{})
	f.Add([]byte{0, 9, 0, 2, 0xff, 0xff})                   // MSS of the wrong width
	f.Add([]byte{0, 1, 0, 4, 1})                            // truncated
	f.Add([]byte{0xff, 0xff, 0, 3, 1, 2, 3, 0, 2, 0, 1, 4}) // unknown tag, then recovery
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, ok := wiretest.Contract(t, raw, DecodeSpec, EncodeSpec)
		if !ok {
			return
		}
		n := *s
		n.Normalize()
		if n != *s || s.MSS > MaxMSS {
			t.Fatalf("decoded spec outside Normalize's bounds: %+v", *s)
		}
	})
}
