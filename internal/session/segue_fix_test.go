package session

import (
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/reliable"
)

// countSink records metric counters for assertions.
type countSink map[string]uint64

func (c countSink) Count(name string, d uint64) { c[name] += d }
func (c countSink) Sample(string, float64)      {}
func (c countSink) Gauge(string, float64)       {}

// TestApplySpecAtomicOnRefusal is the regression test for the half-applied
// reconfiguration bug: ApplySpec used to swap s.spec and RcvBufCap before
// attempting segues, so a refused segue on a non-reconfigurable session left
// new parameters paired with old mechanisms. It must now refuse up front and
// leave the session untouched.
func TestApplySpecAtomicOnRefusal(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.Recovery = mechanism.RecoverySelectiveRepeat
	s := newTestSession(t, spec, out)
	sink := countSink{}
	s.SetMetricSink(sink)
	s.Open()
	s.SetReconfigurable(false)

	oldSpec := *s.Spec()
	oldCap := s.State().RcvBufCap
	oldRecovery := s.CurrentSlots().Recovery

	ns := *s.Spec()
	ns.Recovery = mechanism.RecoveryGoBackN
	ns.RcvBufPDUs = oldCap * 4
	if err := s.ApplySpec(&ns); err == nil {
		t.Fatal("ApplySpec on a non-reconfigurable session succeeded")
	}
	if got := *s.Spec(); got != oldSpec {
		t.Fatalf("spec mutated by refused ApplySpec:\n got %+v\nwant %+v", got, oldSpec)
	}
	if s.State().RcvBufCap != oldCap {
		t.Fatalf("RcvBufCap = %d after refusal, want %d", s.State().RcvBufCap, oldCap)
	}
	if s.CurrentSlots().Recovery != oldRecovery {
		t.Fatal("recovery mechanism replaced despite refusal")
	}
	if sink["session.applyspec_refused"] == 0 {
		t.Fatal("refusal not counted")
	}
	if s.Segues != 0 {
		t.Fatalf("segues = %d after refusal", s.Segues)
	}
}

// TestApplySpecParamOnlyChangesSucceedWhenStatic verifies the atomicity fix
// does not over-refuse: parameter-only changes (rate retune, receive buffer
// resize) need no segue and must still apply to immutable template sessions.
func TestApplySpecParamOnlyChangesSucceedWhenStatic(t *testing.T) {
	out := &loopOut{}
	spec := mechanism.DefaultSpec()
	spec.RateBps = 1e6
	s := newTestSession(t, spec, out)
	s.Open()
	s.SetReconfigurable(false)

	ns := *s.Spec()
	ns.RateBps = 2e6 // both non-zero: a SetRate tweak, not a segue
	ns.RcvBufPDUs = ns.RcvBufPDUs + 7
	if err := s.ApplySpec(&ns); err != nil {
		t.Fatalf("parameter-only ApplySpec refused: %v", err)
	}
	if s.Spec().RateBps != 2e6 {
		t.Fatalf("rate = %v", s.Spec().RateBps)
	}
	if s.State().RcvBufCap != ns.RcvBufPDUs {
		t.Fatalf("RcvBufCap = %d, want %d", s.State().RcvBufCap, ns.RcvBufPDUs)
	}
	if s.Segues != 0 {
		t.Fatalf("parameter tweak counted as %d segues", s.Segues)
	}
}

// TestSegueToUnreliableDisarmsRTO is the regression test for the spurious
// RTO loop: SegueRecovery unconditionally armed the retransmission timer,
// so a session segued to reliable.None with data in flight fired (no-op)
// RTOs forever. The timer must be disarmed instead, and no rel.rto_fired
// events may accrue afterwards.
func TestSegueToUnreliableDisarmsRTO(t *testing.T) {
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.Recovery = mechanism.RecoverySelectiveRepeat
	out := &loopOut{} // no peer: nothing is ever acked, data stays in flight
	s := newTestSession(t, spec, out)
	sink := countSink{}
	s.SetMetricSink(sink)
	s.Open()
	s.Send(make([]byte, 500))
	if s.State().InFlight() == 0 {
		t.Fatal("test needs in-flight data")
	}

	if !s.SegueRecovery(reliable.NewNone()) {
		t.Fatal("segue refused")
	}
	before := sink["rel.rto_fired"]
	simKernelOf(s).RunUntil(5 * time.Minute)
	if fired := sink["rel.rto_fired"] - before; fired != 0 {
		t.Fatalf("%d spurious RTOs fired after segue to reliable.None", fired)
	}
}

// TestSegueToPureFECKeepsRTO guards the counterpart: pure FEC is unreliable
// but consumes the RTO (it abandons outstanding data on expiry), so the
// timer must stay armed across a segue to it — otherwise the loss-tolerant
// sender can strand its window accounting forever.
func TestSegueToPureFECKeepsRTO(t *testing.T) {
	spec := mechanism.DefaultSpec()
	spec.MSS = 100
	spec.Recovery = mechanism.RecoverySelectiveRepeat
	out := &loopOut{}
	s := newTestSession(t, spec, out)
	s.Open()
	s.Send(make([]byte, 500))
	if s.State().InFlight() == 0 {
		t.Fatal("test needs in-flight data")
	}
	if !s.SegueRecovery(reliable.NewFEC(false)) {
		t.Fatal("segue refused")
	}
	simKernelOf(s).RunUntil(5 * time.Minute)
	if s.State().InFlight() != 0 {
		t.Fatal("pure FEC never abandoned in-flight data: RTO was disarmed")
	}
}
