package mechanism

import (
	"testing"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/wire"
)

func TestNewTransferStateDefaults(t *testing.T) {
	st := NewTransferState(0, 0)
	if st.RcvBufCap != 256 || st.RTO != 200*time.Millisecond {
		t.Fatalf("defaults %d/%v", st.RcvBufCap, st.RTO)
	}
	if st.InFlight() != 0 {
		t.Fatal("fresh state has flight")
	}
}

func TestAdvertiseClamps(t *testing.T) {
	st := NewTransferState(1<<20, time.Second)
	if st.Advertise() != 0xffff {
		t.Fatalf("advertise %d, want clamp to 0xffff", st.Advertise())
	}
}

func TestAckThroughNoProgress(t *testing.T) {
	st := NewTransferState(8, time.Second)
	st.SndUna = 5
	if n, _, ok := st.AckThrough(3); n != 0 || ok {
		t.Fatal("stale ack made progress")
	}
	st.DupAcks = 2
	st.Unacked.Set(5, &SentPDU{PDU: &wire.PDU{Header: wire.Header{Seq: 5}, Payload: message.NewFromBytes([]byte("x"))}})
	if n, _, _ := st.AckThrough(6); n != 1 {
		t.Fatal("fresh ack made no progress")
	}
	if st.DupAcks != 0 {
		t.Fatal("progress did not reset dup-ack count")
	}
}

func TestDrainInOrderStopsAtGap(t *testing.T) {
	st := NewTransferState(8, time.Second)
	mk := func(seq uint32) *RecvPDU {
		return &RecvPDU{PDU: &wire.PDU{Header: wire.Header{Seq: seq}, Payload: message.NewFromBytes([]byte("p"))}}
	}
	st.RcvBuf.Set(0, mk(0))
	st.RcvBuf.Set(1, mk(1))
	st.RcvBuf.Set(3, mk(3))
	run := st.DrainInOrder()
	if len(run) != 2 || st.RcvNxt != 2 {
		t.Fatalf("drained %d, rcvNxt %d", len(run), st.RcvNxt)
	}
	if st.RcvBuf.Len() != 1 {
		t.Fatal("gap entry drained")
	}
}

func TestNopSinkAndNotifications(t *testing.T) {
	var s NopSink
	s.Count("x", 1)
	s.Sample("x", 1)
	s.Gauge("x", 1)
	n := Notification{Kind: NoteSegue, Detail: "d"}
	if n.Kind != NoteSegue {
		t.Fatal("notification kind lost")
	}
}

func TestSpecStringMentionsMechanisms(t *testing.T) {
	s := DefaultSpec()
	out := s.String()
	for _, want := range []string{"selective-repeat", "fixed-window", "sequenced", "crc32"} {
		if !contains(out, want) {
			t.Fatalf("Spec.String %q missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
