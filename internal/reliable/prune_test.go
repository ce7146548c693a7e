package reliable

import (
	"testing"
	"time"

	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/seqwin"
	"adaptive/internal/wire"
)

// ackPDU builds a cumulative ack.
func ackPDU(ack uint32) *wire.PDU {
	return &wire.PDU{Header: wire.Header{Type: wire.TAck, Ack: ack, Window: 64}}
}

// TestSelectiveRepeatRetxMapBounded soaks the sender-side throttle map
// through heavy sequence churn: every window is NAK-retransmitted, then
// acked. Before pruning, lastRetx kept one entry per ever-retransmitted
// sequence for the life of the session.
func TestSelectiveRepeatRetxMapBounded(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	const window, rounds = 32, 500
	var seq uint32
	for r := 0; r < rounds; r++ {
		base := seq
		for i := 0; i < window; i++ {
			e.SentEntry(seq, "p", e.Clock().Now())
			seq++
		}
		// Peer NAKs the whole window; each sequence lands in lastRetx.
		missing := make([]uint32, 0, window)
		for q := base; q < seq; q++ {
			missing = append(missing, q)
		}
		nak := EncodeNak(nil, missing)
		s.OnNak(e, nak)
		// Everything is then acked: the session clears Unacked and
		// advances SndUna before the strategy sees the ack.
		for q := base; q < seq; q++ {
			e.StateV.Unacked.Take(q)
		}
		e.StateV.SndUna = seq
		s.OnAck(e, ackPDU(seq))
		e.Kernel.RunUntil(e.Clock().Now() + 100*time.Millisecond)
	}
	if s.lastRetx.Len() > window {
		t.Fatalf("lastRetx grew to %d entries after %d rounds (want <= %d)",
			s.lastRetx.Len(), rounds, window)
	}
}

// TestSelectiveRepeatNakMapBounded soaks the receiver-side NAK throttle:
// each round arrives with a gap (triggering NAKs) that then fills. Before
// pruning, lastNak kept one entry per ever-NAKed sequence.
func TestSelectiveRepeatNakMapBounded(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	const rounds = 500
	var seq uint32
	for r := 0; r < rounds; r++ {
		lost := seq
		// seq arrives out of order first, NAKing the hole at `lost`.
		s.OnData(e, mechtest.DataPDU(seq+1, "b"))
		s.OnData(e, mechtest.DataPDU(lost, "a"))
		seq += 2
		e.Kernel.RunUntil(e.Clock().Now() + 50*time.Millisecond)
	}
	if e.StateV.RcvNxt != seq {
		t.Fatalf("receiver advanced to %d, want %d", e.StateV.RcvNxt, seq)
	}
	if s.lastNak.Len() > 8 {
		t.Fatalf("lastNak grew to %d entries after %d rounds", s.lastNak.Len(), rounds)
	}
	if e.StateV.RcvBuf.Len() != 0 {
		t.Fatalf("receive buffer holds %d PDUs after full delivery", e.StateV.RcvBuf.Len())
	}
}

// TestGoBackNRetxMapBounded soaks go-back-n through repeated RTO-driven
// window retransmissions followed by acks.
func TestGoBackNRetxMapBounded(t *testing.T) {
	e := mechtest.New(nil)
	g := NewGoBackN()
	const window, rounds = 16, 500
	var seq uint32
	for r := 0; r < rounds; r++ {
		for i := 0; i < window; i++ {
			e.SentEntry(seq, "p", e.Clock().Now())
			seq++
		}
		g.OnRTO(e) // retransmits the whole window, populating lastRetx
		for q := seq - window; q < seq; q++ {
			e.StateV.Unacked.Take(q)
		}
		e.StateV.SndUna = seq
		g.OnAck(e, ackPDU(seq))
		e.Kernel.RunUntil(e.Clock().Now() + 100*time.Millisecond)
	}
	if g.lastRetx.Len() > window {
		t.Fatalf("lastRetx grew to %d entries after %d rounds (want <= %d)",
			g.lastRetx.Len(), rounds, window)
	}
}

// TestFECHybridRetxMapBounded covers the same leak in the hybrid FEC
// retransmission path.
func TestFECHybridRetxMapBounded(t *testing.T) {
	e := mechtest.New(nil)
	f := NewFEC(true)
	const window, rounds = 16, 300
	var seq uint32
	for r := 0; r < rounds; r++ {
		base := seq
		for i := 0; i < window; i++ {
			e.SentEntry(seq, "p", e.Clock().Now())
			seq++
		}
		missing := make([]uint32, 0, window)
		for q := base; q < seq; q++ {
			missing = append(missing, q)
		}
		nak := EncodeNak(nil, missing)
		f.OnNak(e, nak)
		for q := base; q < seq; q++ {
			e.StateV.Unacked.Take(q)
		}
		e.StateV.SndUna = seq
		f.OnAck(e, ackPDU(seq))
		e.Kernel.RunUntil(e.Clock().Now() + 100*time.Millisecond)
	}
	if f.lastRetx.Len() > window {
		t.Fatalf("lastRetx grew to %d entries after %d rounds (want <= %d)",
			f.lastRetx.Len(), rounds, window)
	}
}

// TestFECHybridNakThrottleFollowsRcvNxt runs a hybrid receiver more than
// seqwin.MaxSpan sequence numbers past its first NAK. The throttle is pruned
// where it is consulted (nakGaps, shared with selective repeat), so it lets go
// of what RcvNxt has passed and a gap that opens later is still NAKed once,
// not on every arrival.
func TestFECHybridNakThrottleFollowsRcvNxt(t *testing.T) {
	e := mechtest.New(fecSpec(4))
	f := NewFEC(true)
	naks := 0
	arrive := func(seq uint32) {
		f.OnData(e, mechtest.DataPDU(seq, "p"))
		naks += e.ControlCount(wire.TNak)
		e.Control = e.Control[:0]
		for _, d := range e.Released {
			d.Msg.Release()
		}
		e.Released = e.Released[:0]
	}
	arrive(1) // hole at 0: NAKed
	arrive(0)
	if naks != 1 {
		t.Fatalf("%d NAKs for the first hole, want 1", naks)
	}
	seq := uint32(2)
	for ; seq < seqwin.MaxSpan+100; seq++ {
		arrive(seq)
	}
	if e.StateV.RcvNxt != seq {
		t.Fatalf("after %d in-order PDUs RcvNxt is %d", seq, e.StateV.RcvNxt)
	}
	// A new hole at seq, then three arrivals beyond it at one instant.
	naks = 0
	arrive(seq + 1)
	arrive(seq + 2)
	arrive(seq + 3)
	if naks != 1 {
		t.Fatalf("%d NAKs for one hole within the retransmission gap, want 1", naks)
	}
	if f.lastNak.Len() != 1 {
		t.Fatalf("throttle holds %d entries, want 1", f.lastNak.Len())
	}
}

// TestNakBeyondThrottleSpanNotSent: a hole the throttle cannot hold (MaxSpan
// or more past RcvNxt, where no conforming sender is) is not NAKed at all
// rather than NAKed on every arrival. One PDU far ahead, repeated within one
// retransmission gap, walks the NAK list up to the span and no further.
func TestNakBeyondThrottleSpanNotSent(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	const far = seqwin.MaxSpan + 200
	listed := 0
	for i := 0; i < seqwin.MaxSpan/maxNakList+10; i++ {
		s.OnData(e, mechtest.DataPDU(far, "far"))
		for _, p := range e.Control {
			if p.Type != wire.TNak {
				continue
			}
			for _, q := range DecodeNakList(p, nil) {
				if q >= seqwin.MaxSpan {
					t.Fatalf("arrival %d: NAKed %d, which a throttle with low edge 0 cannot hold", i, q)
				}
				listed++
			}
		}
		e.Control = e.Control[:0]
	}
	if listed != seqwin.MaxSpan {
		t.Fatalf("NAKed %d sequence numbers, want each of the %d holdable ones once", listed, seqwin.MaxSpan)
	}
}
