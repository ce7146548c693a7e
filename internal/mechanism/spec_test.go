package mechanism

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"adaptive/internal/wire"
)

func TestSpecCodecRoundTrip(t *testing.T) {
	s := DefaultSpec()
	s.ConnMgmt = ConnExplicit3Way
	s.Recovery = RecoveryFECHybrid
	s.Window = WindowAdaptive
	s.Order = OrderNone
	s.Checksum = wire.CkInternet
	s.WindowSize = 77
	s.FECGroup = 12
	s.RateBps = 3e6
	s.MSS = 999
	s.RcvBufPDUs = 55
	s.RTOInit = 123 * time.Millisecond
	s.RTOMin = 7 * time.Millisecond
	s.RTOMax = 9 * time.Second
	s.GapDeadline = 33 * time.Millisecond
	s.AckDelay = 3 * time.Millisecond
	s.Graceful = true
	s.LossTolerant = true
	s.Multicast = true
	s.Priority = 4
	s.Normalize()

	got, err := DecodeSpec(EncodeSpec(&s))
	if err != nil {
		t.Fatal(err)
	}
	if *got != s {
		t.Fatalf("round trip:\n got %+v\nwant %+v", *got, s)
	}
}

func TestSpecEncodingCanonical(t *testing.T) {
	// Negotiation relies on byte-equality to detect "peer adjusted my
	// proposal": encode(decode(encode(s))) must equal encode(s).
	s := DefaultSpec()
	s.Normalize()
	e1 := EncodeSpec(&s)
	d, err := DecodeSpec(e1)
	if err != nil {
		t.Fatal(err)
	}
	e2 := EncodeSpec(d)
	if !bytes.Equal(e1, e2) {
		t.Fatal("spec encoding not canonical")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(win, fec, mss, rcv int32, ackMs int16) bool {
		s := Spec{
			WindowSize: int(win % 2000), FECGroup: int(fec % 100),
			MSS: int(mss % 3000), RcvBufPDUs: int(rcv % 1000),
			AckDelay: time.Duration(ackMs) * time.Millisecond,
		}
		s.Normalize()
		before := s
		s.Normalize()
		return s == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeInvariants(t *testing.T) {
	var s Spec
	s.FECGroup = 1000
	s.AckDelay = time.Hour
	s.WindowSize = 8
	s.Normalize()
	if s.FECGroup > 64 {
		t.Fatalf("FEC group %d exceeds bitmap width", s.FECGroup)
	}
	if s.AckDelay > s.RTOMin/2 {
		t.Fatalf("ack delay %v above RTO floor %v", s.AckDelay, s.RTOMin)
	}
	if s.WindowSize <= 0 || s.MSS <= 0 || s.RcvBufPDUs <= 0 {
		t.Fatalf("zero-valued parameters survived: %+v", s)
	}
}

func TestNormalizeDisablesAckDelayForTinyWindows(t *testing.T) {
	var s Spec
	s.WindowSize = 1
	s.AckDelay = 5 * time.Millisecond
	s.Normalize()
	if s.AckDelay != 0 {
		t.Fatal("stop-and-wait kept a delayed ack (would serialize on it)")
	}
}

func TestSpecDecodeSkipsUnknownTags(t *testing.T) {
	s := DefaultSpec()
	enc := EncodeSpec(&s)
	enc = append(enc, 0x27, 0x0f, 0, 8, 0, 0, 0, 0, 0, 0, 0, 42) // tag 9999, a future field
	got, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery != s.Recovery {
		t.Fatal("known fields lost around unknown tag")
	}
}

func TestKindStrings(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{ConnImplicit.String(), "implicit"},
		{ConnExplicit3Way.String(), "explicit-3way"},
		{RecoverySelectiveRepeat.String(), "selective-repeat"},
		{RecoveryFECHybrid.String(), "fec-hybrid"},
		{WindowStopAndWait.String(), "stop-and-wait"},
		{OrderSequenced.String(), "sequenced"},
	} {
		if tc.got != tc.want {
			t.Fatalf("%q != %q", tc.got, tc.want)
		}
	}
	if ConnKind(99).String() == "" || RecoveryKind(99).String() == "" {
		t.Fatal("unknown kinds must still print")
	}
}
