package reliable

import (
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/mechanism/mechtest"
	"adaptive/internal/wire"
)

func delayedSpec() *mechanism.Spec {
	s := mechanism.DefaultSpec()
	s.AckDelay = 5 * time.Millisecond
	s.RTOMin = 50 * time.Millisecond
	return &s
}

func TestDelayedAckCoalescesEverySecondPDU(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	feedData(e, s, 0, "a")
	if got := e.ControlCount(wire.TAck); got != 0 {
		t.Fatalf("acked immediately (%d) despite delay", got)
	}
	// Advance virtual time so the second PDU is a distinct arrival, not a
	// same-instant burst (bursts coalesce further; see the burst test).
	e.Kernel.RunUntil(time.Millisecond)
	feedData(e, s, 1, "b")
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("second in-order PDU produced %d acks, want coalesced 1", got)
	}
	if ack := e.LastControl(wire.TAck); ack.Ack != 2 {
		t.Fatalf("coalesced ack covers %d, want 2", ack.Ack)
	}
	if s.AcksCoalesced() != 1 {
		t.Fatalf("coalesced count %d", s.AcksCoalesced())
	}
}

func TestDelayedAckCoalescesSameInstantBurst(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	// Ten in-order PDUs at one virtual instant: a batched-drain burst. No
	// ack until either time advances or the delay timer fires.
	for seq := uint32(0); seq < 10; seq++ {
		feedData(e, s, seq, "x")
	}
	if got := e.ControlCount(wire.TAck); got != 0 {
		t.Fatalf("same-instant burst produced %d early acks", got)
	}
	// The next PDU at a later instant flushes one cumulative ack for all 11.
	e.Kernel.RunUntil(time.Millisecond)
	feedData(e, s, 10, "x")
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("burst flushed %d acks, want 1", got)
	}
	if ack := e.LastControl(wire.TAck); ack.Ack != 11 {
		t.Fatalf("burst ack covers %d, want 11", ack.Ack)
	}
	if s.AcksCoalesced() != 10 {
		t.Fatalf("coalesced count %d, want 10", s.AcksCoalesced())
	}
}

func TestDelayedAckBurstCapForcesFlush(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	for seq := uint32(0); seq < ackBurstCap; seq++ {
		feedData(e, s, seq, "x")
	}
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("capped burst produced %d acks, want 1 at the cap", got)
	}
	if ack := e.LastControl(wire.TAck); ack.Ack != ackBurstCap {
		t.Fatalf("cap flush covers %d, want %d", ack.Ack, ackBurstCap)
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	feedData(e, s, 0, "a")
	e.Kernel.RunUntil(10 * time.Millisecond)
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("delay timer produced %d acks", got)
	}
}

func TestDelayedAckImmediateOnGap(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	feedData(e, s, 2, "c") // gap: loss signal must not wait
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("gap arrival produced %d immediate acks", got)
	}
}

func TestDelayedAckGBNDupImmediate(t *testing.T) {
	e := mechtest.New(delayedSpec())
	g := NewGoBackN()
	feedData(e, g, 1, "b") // out of order: dup-ack now
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("GBN out-of-order produced %d acks", got)
	}
	feedData(e, g, 0, "a") // in order: may coalesce
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("in-order after dup acked immediately (%d)", got)
	}
	e.Kernel.RunUntil(20 * time.Millisecond)
	if got := e.ControlCount(wire.TAck); got != 2 {
		t.Fatalf("timer flush missing: %d acks", got)
	}
}

func TestFlushAckOnSegue(t *testing.T) {
	e := mechtest.New(delayedSpec())
	s := NewSelectiveRepeat()
	feedData(e, s, 0, "a") // pending delayed ack
	s.Handover(e)
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("segue flush produced %d acks", got)
	}
	// Timer must not double-fire afterwards.
	e.Kernel.RunUntil(time.Second)
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("stale delayed-ack timer fired: %d acks", got)
	}
}

func TestZeroDelayActsImmediately(t *testing.T) {
	e := mechtest.New(nil) // default spec: AckDelay 0
	s := NewSelectiveRepeat()
	feedData(e, s, 0, "a")
	if got := e.ControlCount(wire.TAck); got != 1 {
		t.Fatalf("immediate mode produced %d acks", got)
	}
}

func TestThrottleDisabledRespondsToEveryNak(t *testing.T) {
	e := mechtest.New(nil)
	s := NewSelectiveRepeat()
	s.DisableThrottle = true
	e.SentEntry(0, "a", 0)
	s.OnNak(e, EncodeNak(nil, []uint32{0}))
	s.OnNak(e, EncodeNak(nil, []uint32{0}))
	if len(e.Data) != 2 {
		t.Fatalf("unthrottled sender resent %d times", len(e.Data))
	}
}
