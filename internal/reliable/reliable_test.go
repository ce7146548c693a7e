package reliable

import (
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/seqwin"
	"adaptive/internal/wire"
)

// --- shared helpers ---

func feedData(e *mechtest.Env, r mechanism.Recovery, seq uint32, payload string) {
	r.OnData(e, mechtest.DataPDU(seq, payload))
}

// --- None ---

func TestNoneDeliversImmediately(t *testing.T) {
	e := mechtest.New(nil)
	n := NewNone()
	feedData(e, n, 0, "a")
	feedData(e, n, 2, "c") // gap: delivered anyway
	feedData(e, n, 1, "b")
	got := e.ReleasedPayloads()
	if len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "b" {
		t.Fatalf("released %v", got)
	}
	if e.ControlCount(wire.TAck) != 0 {
		t.Fatal("none recovery acked")
	}
	if e.StateV.RcvNxt != 3 {
		t.Fatalf("rcvNxt = %d", e.StateV.RcvNxt)
	}
}

// unacked returns the retransmission-buffer entry for seq (nil when absent).
func unacked(e *mechtest.Env, seq uint32) *mechanism.SentPDU {
	s, _ := e.StateV.Unacked.Get(seq)
	return s
}

func TestNoneDropsSendBuffer(t *testing.T) {
	e := mechtest.New(nil)
	n := NewNone()
	e.SentEntry(0, "x", 0)
	p := unacked(e, 0).PDU
	n.OnSendData(e, p)
	if e.StateV.InFlight() != 0 {
		t.Fatal("none recovery kept send buffer")
	}
	if e.StateV.SndUna != 1 {
		t.Fatalf("sndUna = %d", e.StateV.SndUna)
	}
	if !n.Reliable() {
		return
	}
	t.Fatal("none claims reliability")
}

// --- GoBackN ---

func TestGBNInOrderDelivery(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	feedData(e, g, 0, "a")
	feedData(e, g, 1, "b")
	if got := e.ReleasedPayloads(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("released %v", got)
	}
	// Every data PDU produces a cumulative ack.
	if e.ControlCount(wire.TAck) != 2 {
		t.Fatalf("%d acks", e.ControlCount(wire.TAck))
	}
	if ack := e.LastControl(wire.TAck); ack.Ack != 2 {
		t.Fatalf("cumulative ack %d", ack.Ack)
	}
}

func TestGBNDiscardsOutOfOrder(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	feedData(e, g, 1, "b") // gap: discarded, dup-ack 0
	if len(e.Released) != 0 {
		t.Fatal("out-of-order delivered")
	}
	if e.StateV.RcvBuf.Len() != 0 {
		t.Fatal("GBN buffered out-of-order data")
	}
	if ack := e.LastControl(wire.TAck); ack == nil || ack.Ack != 0 {
		t.Fatalf("expected dup ack 0, got %v", ack)
	}
	if e.Sink.Counts["rel.ooo_discarded"] != 1 {
		t.Fatal("discard not counted")
	}
}

func TestGBNRTORetransmitsWholeWindow(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	for i := uint32(0); i < 5; i++ {
		e.SentEntry(i, "p", 0)
	}
	rtoBefore := e.StateV.RTO
	g.OnRTO(e)
	if len(e.Data) != 5 {
		t.Fatalf("retransmitted %d of 5", len(e.Data))
	}
	if e.StateV.Retransmissions != 5 {
		t.Fatalf("retransmission count %d", e.StateV.Retransmissions)
	}
	if e.StateV.RTO <= rtoBefore {
		t.Fatal("RTO did not back off")
	}
	if e.WindowLosses != 1 {
		t.Fatal("window not told about loss")
	}
}

func TestGBNFastRetransmitOnTripleDupAck(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	for i := uint32(0); i < 3; i++ {
		e.SentEntry(i, "p", 0)
	}
	ack := &wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 0}}
	e.StateV.DupAcks = 3 // session counts dups before recovery sees the ack
	g.OnAck(e, ack)
	if len(e.Data) != 3 {
		t.Fatalf("fast retransmit sent %d PDUs", len(e.Data))
	}
	if e.Sink.Counts["rel.fast_retransmits"] != 1 {
		t.Fatal("fast retransmit not counted")
	}
}

func TestGBNRetransmitThrottle(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	e.SentEntry(0, "p", 0)
	e.StateV.DupAcks = 3
	g.OnAck(e, &wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 0}})
	g.OnAck(e, &wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: 0}})
	// Second burst within minRetxGap must not resend.
	if len(e.Data) != 1 {
		t.Fatalf("throttle failed: %d retransmissions", len(e.Data))
	}
}

func TestGBNDrainsPreSegueBuffer(t *testing.T) {
	// Data buffered by a selective-repeat phase must still deliver after
	// a segue to go-back-n.
	e := mechtest.New(nil)
	sr := NewSelectiveRepeat()
	feedData(e, sr, 1, "b") // buffered by SR
	if e.StateV.RcvBuf.Len() != 1 {
		t.Fatal("SR did not buffer")
	}
	g := NewGoBackN()
	g.ImportState(sr.ExportState()) // wrong-type import must be harmless
	feedData(e, g, 0, "a")
	got := e.ReleasedPayloads()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("post-segue delivery: %v", got)
	}
}

// --- SelectiveRepeat ---

func TestSRBuffersAndDrains(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	feedData(e, s, 2, "c")
	feedData(e, s, 1, "b")
	if len(e.Released) != 0 {
		t.Fatal("delivered before gap filled")
	}
	feedData(e, s, 0, "a")
	got := e.ReleasedPayloads()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("released %v", got)
	}
	if e.StateV.RcvNxt != 3 {
		t.Fatalf("rcvNxt %d", e.StateV.RcvNxt)
	}
}

func TestSRNaksGaps(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	feedData(e, s, 3, "d")
	nak := e.LastControl(wire.TNak)
	if nak == nil {
		t.Fatal("no NAK for gap")
	}
	missing := DecodeNakList(nak, nil)
	if len(missing) != 3 || missing[0] != 0 || missing[2] != 2 {
		t.Fatalf("NAK lists %v", missing)
	}
}

func TestSRNakThrottled(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	feedData(e, s, 2, "c")
	feedData(e, s, 3, "d") // same gap, immediately after
	if got := e.ControlCount(wire.TNak); got != 1 {
		t.Fatalf("%d NAKs for one gap burst", got)
	}
}

func TestSRRetransmitsOnNak(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	e.SentEntry(0, "a", 0)
	e.SentEntry(1, "b", 0)
	e.SentEntry(2, "c", 0)
	s.OnNak(e, EncodeNak(nil, []uint32{1}))
	if len(e.Data) != 1 || e.Data[0].Seq != 1 {
		t.Fatalf("NAK retransmitted %v", e.Data)
	}
}

func TestSRRTORetransmitsOldestOnly(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	for i := uint32(0); i < 5; i++ {
		e.SentEntry(i, "p", 0)
	}
	s.OnRTO(e)
	if len(e.Data) != 1 || e.Data[0].Seq != 0 {
		t.Fatalf("SR RTO retransmitted %d PDUs (first %v)", len(e.Data), e.Data[0].Seq)
	}
}

func TestSRRTOWithHoleInBuffer(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	e.SentEntry(3, "d", 0)
	e.StateV.SndUna = 1 // seq 1,2 already acked selectively... una points at hole
	s.OnRTO(e)
	if len(e.Data) != 1 || e.Data[0].Seq != 3 {
		t.Fatalf("RTO with hole retransmitted %v", e.Data)
	}
}

func TestSRDuplicateFiltered(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	feedData(e, s, 0, "a")
	feedData(e, s, 0, "a")
	if len(e.Released) != 1 {
		t.Fatal("duplicate delivered")
	}
	if e.Sink.Counts["rel.duplicates"] != 1 {
		t.Fatal("duplicate not counted")
	}
}

// TestFarAheadSequenceRefused: a sequence number further ahead of the buffered
// data than any advertised window could put it is counted as overflow and
// dropped, not allowed to size the reassembly window.
func TestFarAheadSequenceRefused(t *testing.T) {
	for name, r := range map[string]mechanism.Recovery{"selective-repeat": NewSelectiveRepeat(), "fec": NewFEC(false)} {
		e := mechtest.New(nil)
		feedData(e, r, 1, "b") // 0 missing: 1 is buffered
		feedData(e, r, 1+seqwin.MaxSpan, "x")
		if e.StateV.RcvBuf.Len() != 1 || e.Sink.Counts["rel.rcvbuf_overflow"] != 1 {
			t.Fatalf("%s: buffered %d, overflow %d; want 1 and 1", name,
				e.StateV.RcvBuf.Len(), e.Sink.Counts["rel.rcvbuf_overflow"])
		}
		feedData(e, r, 0, "a")
		if got := e.ReleasedPayloads(); len(got) != 2 {
			t.Fatalf("%s: delivered %v after the gap filled", name, got)
		}
	}
}

func TestSRBufferCapRespected(t *testing.T) {
	spec := mechanism.DefaultSpec()
	spec.RcvBufPDUs = 2
	e := mechtest.New(&spec)
	s := NewSelectiveRepeat()
	feedData(e, s, 5, "x")
	feedData(e, s, 6, "y")
	feedData(e, s, 7, "z") // over capacity: dropped
	if e.StateV.RcvBuf.Len() != 2 {
		t.Fatalf("buffer grew to %d", e.StateV.RcvBuf.Len())
	}
	if e.Sink.Counts["rel.rcvbuf_overflow"] != 1 {
		t.Fatal("overflow not counted")
	}
}

func TestSRSegueStatePreservesThrottles(t *testing.T) {
	e := mechtest.New(nil)
	s1 := NewSelectiveRepeat()
	e.SentEntry(0, "a", 0)
	s1.OnNak(e, EncodeNak(nil, []uint32{0}))
	if len(e.Data) != 1 {
		t.Fatal("setup: no retransmission")
	}
	s2 := NewSelectiveRepeat()
	s2.ImportState(s1.ExportState())
	// The throttle state traveled: an immediate duplicate NAK must not
	// trigger another retransmission.
	s2.OnNak(e, EncodeNak(nil, []uint32{0}))
	if len(e.Data) != 1 {
		t.Fatal("segue lost retransmit throttle state")
	}
}

// --- NAK codec ---

func TestNakCodecRoundTrip(t *testing.T) {
	missing := []uint32{1, 5, 9, 1000000}
	p := EncodeNak(nil, missing)
	got := DecodeNakList(p, nil)
	if len(got) != len(missing) {
		t.Fatalf("decoded %v", got)
	}
	for i := range missing {
		if got[i] != missing[i] {
			t.Fatalf("decoded %v", got)
		}
	}
	p.ReleasePayload()
}

func TestNakListCapped(t *testing.T) {
	long := make([]uint32, 500)
	for i := range long {
		long[i] = uint32(i)
	}
	p := EncodeNak(nil, long)
	if got := DecodeNakList(p, nil); len(got) != maxNakList {
		t.Fatalf("NAK list length %d, want %d", len(got), maxNakList)
	}
	p.ReleasePayload()
}

func TestNakDecodeTruncatedAux(t *testing.T) {
	p := EncodeNak(nil, []uint32{1, 2, 3})
	p.Aux = 100 // lies about the count
	if got := DecodeNakList(p, nil); len(got) != 3 {
		t.Fatalf("oversized aux decoded %d entries", len(got))
	}
	p.ReleasePayload()
}

// --- ack path invariants shared with the session (AckThrough) ---

func TestAckThroughReleasesAndSamplesRTT(t *testing.T) {
	e := mechtest.New(nil)
	e.SentEntry(0, "a", 10*time.Millisecond)
	e.SentEntry(1, "b", 12*time.Millisecond)
	e.SentEntry(2, "c", 14*time.Millisecond)
	unacked(e, 1).Retransmits = 1 // Karn: not timeable
	acked, sentAt, ok := e.StateV.AckThrough(2)
	if acked != 2 || !ok {
		t.Fatalf("acked=%d ok=%v", acked, ok)
	}
	if sentAt != 10*time.Millisecond {
		t.Fatalf("sample from %v (retransmitted entry must be excluded)", sentAt)
	}
	if e.StateV.SndUna != 2 || e.StateV.InFlight() != 1 {
		t.Fatalf("una=%d inflight=%d", e.StateV.SndUna, e.StateV.InFlight())
	}
}

func TestAckThroughAllRetransmittedNoSample(t *testing.T) {
	e := mechtest.New(nil)
	e.SentEntry(0, "a", 10*time.Millisecond)
	unacked(e, 0).Retransmits = 2
	_, _, ok := e.StateV.AckThrough(1)
	if ok {
		t.Fatal("Karn violated: sampled a retransmitted PDU")
	}
}

func TestObserveRTTJacobson(t *testing.T) {
	st := mechanism.NewTransferState(8, 100*time.Millisecond)
	for i := 0; i < 20; i++ {
		st.ObserveRTT(50*time.Millisecond, time.Millisecond, 10*time.Second)
	}
	if st.SRTT < 45*time.Millisecond || st.SRTT > 55*time.Millisecond {
		t.Fatalf("SRTT %v", st.SRTT)
	}
	if st.RTO < 50*time.Millisecond {
		t.Fatalf("RTO %v below SRTT", st.RTO)
	}
	st.ObserveRTT(time.Nanosecond, 20*time.Millisecond, 10*time.Second)
	if st.RTO < 20*time.Millisecond {
		t.Fatalf("RTO %v violated floor", st.RTO)
	}
}

func TestBackoffRTOCapped(t *testing.T) {
	st := mechanism.NewTransferState(8, time.Second)
	for i := 0; i < 10; i++ {
		st.BackoffRTO(5 * time.Second)
	}
	if st.RTO != 5*time.Second {
		t.Fatalf("RTO %v not capped", st.RTO)
	}
}

func TestAdvertiseClampsToCapacity(t *testing.T) {
	st := mechanism.NewTransferState(4, time.Second)
	if st.Advertise() != 4 {
		t.Fatalf("advertise %d", st.Advertise())
	}
	for i := uint32(0); i < 6; i++ {
		st.RcvBuf.Set(i, &mechanism.RecvPDU{})
	}
	if st.Advertise() != 0 {
		t.Fatalf("advertise %d with overfull buffer", st.Advertise())
	}
}
