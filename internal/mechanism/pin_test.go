package mechanism

import (
	"encoding/hex"
	"testing"
	"time"

	"adaptive/internal/wire"
)

// fullSpec sets every Spec field to a distinct non-default value that
// Normalize leaves alone.
func fullSpec() Spec {
	return Spec{
		ConnMgmt: ConnExplicit3Way, Recovery: RecoveryFECHybrid, Window: WindowAdaptive,
		Order: OrderSequenced, Checksum: wire.CkInternet,
		WindowSize: 77, FECGroup: 12, RateBps: 3e6, MSS: 9152, RcvBufPDUs: 555,
		RTOInit: 123 * time.Millisecond, RTOMin: 7 * time.Millisecond, RTOMax: 9 * time.Second,
		AckDelay: 3 * time.Millisecond, GapDeadline: 33 * time.Millisecond,
		EstablishTimeout: 4 * time.Second, KeepaliveInterval: time.Second, DeadInterval: 5 * time.Second,
		Graceful: true, LossTolerant: true, Multicast: true, Priority: 4,
	}
}

// TestSpecBytesPinned holds the SCS encoding as captured before the codecs
// moved onto one field table: the CONNREQ/CONNACK payload and the
// implicit-config blob (178 bytes) are wire artifacts, and conn.Explicit
// byte-compares them to detect a peer's adjustment.
func TestSpecBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		hex  string
	}{
		{"default", DefaultSpec(), "00010001010002000102000300010000040001010005000102000600040000002000070004000000080008000800000000000000000009000400000578000a000400000100000b0008000000000bebc200000c00080000000000989680000d000800000002540be400000e00080000000000000000000f0001010010000400000000001100080000000000000000001200080000000000000000001300080000000000000000001400080000000000000000"},
		{"full", fullSpec(), "00010001020002000104000300010200040001010005000101000600040000004d000700040000000c0008000800000000002dc6c000090004000023c0000a00040000022b000b0008000000000754d4c0000c000800000000006acfc0000d00080000000218711a00000e00080000000001f78a40000f00010700100004000000040011000800000000002dc6c00012000800000000ee6b280000130008000000003b9aca0000140008000000012a05f200"},
	} {
		enc := EncodeSpec(&tc.spec)
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%s: EncodeSpec = %s (%d bytes)\nwant %s", tc.name, got, len(enc), tc.hex)
			continue
		}
		raw, _ := hex.DecodeString(tc.hex)
		want := tc.spec
		want.Normalize()
		got, err := DecodeSpec(raw)
		if err != nil || *got != want {
			t.Errorf("%s: DecodeSpec = %+v, %v\nwant %+v", tc.name, got, err, want)
		}
	}
}
