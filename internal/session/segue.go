package session

import (
	"errors"
	"fmt"

	"adaptive/internal/mechanism"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// SetReconfigurable marks whether segue is permitted. Sessions synthesized
// from static TKO templates are fully customized and immutable (§4.2.2:
// "static templates are guaranteed not to change"); attempts to segue them
// are refused.
func (s *Session) SetReconfigurable(ok bool) { s.reconfigurable = ok }

// Reconfigurable reports whether segue is permitted.
func (s *Session) Reconfigurable() bool { return s.reconfigurable }

// SegueRecovery replaces the reliability-management composite in the live
// session — the paper's flagship reconfiguration (§2.3, §3C): "switching the
// retransmission scheme from go-back-n to selective repeat within an active
// connection" without loss of data. Shared TransferState (sequence numbers,
// retransmission buffer, reassembly buffer) stays in place; mechanism-private
// state is handed over via ExportState/ImportState. It reports whether the
// replacement happened.
func (s *Session) SegueRecovery(next mechanism.Recovery) bool {
	if !s.reconfigurable {
		s.metrics.Count("session.segue_refused", 1)
		return false
	}
	old := s.slots.Recovery
	s.tracer.Emit(s.clock.Now(), trace.KSegueBegin, s.id.ConnID, trace.SlotRecovery, 0, 0)
	old.Handover(s.env())
	next.ImportState(old.ExportState())
	s.slots.Recovery = next
	s.afterSegue(trace.SlotRecovery, old.Name(), next.Name())
	if next.UsesRTO() {
		// A newly reliable (or RTO-consuming, e.g. pure FEC) mechanism
		// must resume loss detection immediately.
		s.armRTO()
	} else if s.rtoTimer != nil {
		// The incoming mechanism never acts on an RTO (reliable.None): a
		// standing timer would fire spuriously forever, since the session
		// re-arms after every expiry while data stays in flight.
		s.rtoTimer.Cancel()
	}
	s.pump()
	return true
}

// SegueWindow replaces the transmission-window mechanism.
func (s *Session) SegueWindow(next mechanism.Window) bool {
	if !s.reconfigurable {
		s.metrics.Count("session.segue_refused", 1)
		return false
	}
	old := s.slots.Window
	s.tracer.Emit(s.clock.Now(), trace.KSegueBegin, s.id.ConnID, trace.SlotWindow, 0, 0)
	if oc, ok := old.(mechanism.StateCarrier); ok {
		if nc, ok2 := next.(mechanism.StateCarrier); ok2 {
			nc.ImportState(oc.ExportState())
		}
	}
	s.slots.Window = next
	s.afterSegue(trace.SlotWindow, old.Name(), next.Name())
	s.pump()
	return true
}

// SegueRate replaces the rate-control mechanism.
func (s *Session) SegueRate(next mechanism.Rate) bool {
	if !s.reconfigurable {
		s.metrics.Count("session.segue_refused", 1)
		return false
	}
	old := s.slots.Rate
	s.tracer.Emit(s.clock.Now(), trace.KSegueBegin, s.id.ConnID, trace.SlotRate, 0, 0)
	if oc, ok := old.(mechanism.StateCarrier); ok {
		if nc, ok2 := next.(mechanism.StateCarrier); ok2 {
			nc.ImportState(oc.ExportState())
		}
	}
	s.slots.Rate = next
	s.afterSegue(trace.SlotRate, old.Name(), next.Name())
	s.pump()
	return true
}

// SegueOrderer replaces the sequencing mechanism, flushing anything the old
// one held back so no data strands.
func (s *Session) SegueOrderer(next mechanism.Orderer) bool {
	if !s.reconfigurable {
		s.metrics.Count("session.segue_refused", 1)
		return false
	}
	old := s.slots.Orderer
	s.tracer.Emit(s.clock.Now(), trace.KSegueBegin, s.id.ConnID, trace.SlotOrder, 0, 0)
	for _, d := range old.Flush() {
		s.deliver(d)
	}
	s.slots.Orderer = next
	s.afterSegue(trace.SlotOrder, old.Name(), next.Name())
	return true
}

func (s *Session) afterSegue(code uint64, from, to string) {
	slot := trace.SlotName(code)
	s.Segues++
	s.markSegue = true
	s.tracer.Emit(s.clock.Now(), trace.KSegueCommit, s.id.ConnID,
		code, trace.HashName(from), trace.HashName(to))
	s.metrics.Count("session.segues", 1)
	// A per-transition counter so UNITES snapshots record which concrete
	// replacement happened (e.g. "session.segue.recovery.selective-repeat->
	// fec-hybrid"), not just that one did.
	s.metrics.Count(fmt.Sprintf("session.segue.%s.%s->%s", slot, from, to), 1)
	s.notify(mechanism.Notification{
		Kind:   mechanism.NoteSegue,
		Detail: fmt.Sprintf("%s: %s -> %s", slot, from, to),
	})
}

// ApplySpec installs a new configuration, re-synthesizing exactly the slots
// whose mechanism kind or parameters changed (negotiation adjustment at
// establishment, or a policy-driven reconfiguration mid-transfer). It
// returns an error when synthesis fails or a required segue was refused
// (immutable template session); parameter-only changes always succeed.
func (s *Session) ApplySpec(ns *mechanism.Spec) error {
	if s.done {
		return errClosed
	}
	if s.factory == nil {
		s.spec = ns
		return nil
	}
	ns.Normalize()
	old := s.spec

	// Work out which slots the new spec actually replaces, before touching
	// any session state: ApplySpec must be atomic — a refused segue on a
	// non-reconfigurable session must not leave new parameters (spec,
	// receive-buffer capacity) paired with the old mechanisms.
	needRecovery := ns.Recovery != old.Recovery || ns.FECGroup != old.FECGroup
	needWindow := ns.Window != old.Window || ns.WindowSize != old.WindowSize
	rateParamOnly := ns.RateBps != old.RateBps && ns.RateBps > 0 && old.RateBps > 0
	needRate := ns.RateBps != old.RateBps && !rateParamOnly
	needOrder := ns.Order != old.Order
	if (needRecovery || needWindow || needRate || needOrder) && !s.reconfigurable {
		s.metrics.Count("session.segue_refused", 1)
		s.metrics.Count("session.applyspec_refused", 1)
		return errors.New("session: segue refused (session is not reconfigurable)")
	}

	slots, err := s.factory(ns)
	if err != nil {
		s.metrics.Count("session.applyspec_errors", 1)
		return fmt.Errorf("session: synthesizing mechanisms: %w", err)
	}
	// Spec must be swapped before the segues: incoming mechanisms read
	// parameters (FEC group size, RTO bounds) through env.Spec().
	s.spec = ns
	s.state.RcvBufCap = ns.RcvBufPDUs

	// Reconfigurability was validated above, so these segues cannot
	// refuse; the belt-and-braces accumulation guards future refusal modes.
	segued := true
	if needRecovery {
		segued = s.SegueRecovery(slots.Recovery) && segued
	}
	if needWindow {
		segued = s.SegueWindow(slots.Window) && segued
	}
	if rateParamOnly {
		s.slots.Rate.SetRate(ns.RateBps) // parameter tweak, not a segue
	} else if needRate {
		segued = s.SegueRate(slots.Rate) && segued
	}
	if needOrder {
		segued = s.SegueOrderer(slots.Orderer) && segued
	}
	// Connection management cannot change mid-connection; checksum kind
	// changes apply to future PDUs automatically via transmitPDU.
	s.pump()
	if !segued {
		return errors.New("session: segue refused (session is not reconfigurable)")
	}
	return nil
}

// SetPaceBps retunes the live rate mechanism to a new pacing budget (the
// host bandwidth arbiter's grant path). It deliberately pokes only the
// mechanism, never s.spec: the spec may be shared with the TKO template
// cache, and a grant is transient operating state, not configuration. On a
// NoRate slot (unpaced session) this is a no-op — callers that need grants
// enforced must ensure a pacer was synthesized (spec.RateBps > 0).
func (s *Session) SetPaceBps(bps float64) {
	if s.done || bps <= 0 {
		return
	}
	// Grants are application-payload rates (ACD throughput figures describe
	// payload), but the pacer charges wire bytes per PDU. Scale the budget by
	// the session's observed framing overhead so a grant actually carries
	// that much payload: a pacer set to the raw payload rate runs a few
	// percent slow and drifts an unbounded sender queue under a constant-rate
	// source.
	if s.SentPDUs > 0 {
		mean := float64(s.SentBytes) / float64(s.SentPDUs)
		if payload := mean - wire.Overhead; payload > 0 {
			bps *= mean / payload
		}
	}
	s.slots.Rate.SetRate(bps)
	s.pump()
}
