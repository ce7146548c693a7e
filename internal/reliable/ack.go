package reliable

import (
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
)

// delayedAcker implements the delayed-acknowledgment timer the paper lists
// among the negotiated session parameters ("timer settings for delayed
// acknowledgments", §4.1.1). With Spec.AckDelay zero it degenerates to
// immediate cumulative acks; otherwise acks coalesce until the delay
// expires or a second in-order PDU arrives at a later virtual instant, and
// anything anomalous (out-of-order data, duplicates) acks immediately so
// loss detection at the sender stays prompt.
//
// PDUs sharing one virtual instant — a batched link drain handing the
// receiver a burst — coalesce into a single cumulative ack (capped at
// ackBurstCap so a pathological burst still acks), which is what keeps
// ack traffic, and with it kernel events per delivered packet, flat as
// per-drain burst sizes grow.
type delayedAcker struct {
	timer     *event.Event // created once, re-armed with Reset thereafter
	pending   bool
	sinceAck  int
	lastAt    time.Duration // virtual instant of the last coalesced PDU
	Coalesced uint64        // acks saved by coalescing (whitebox metric)
}

// ackBurstCap bounds how many same-instant PDUs one cumulative ack covers.
const ackBurstCap = 64

// ack registers an ack-worthy in-order event.
func (d *delayedAcker) ack(e mechanism.Env) {
	delay := e.Spec().AckDelay
	if delay <= 0 {
		sendCumAck(e)
		return
	}
	now := e.Clock().Now()
	d.sinceAck++
	if d.sinceAck >= 2 && (now != d.lastAt || d.sinceAck >= ackBurstCap) {
		d.flush(e)
		return
	}
	d.lastAt = now
	if d.pending {
		return
	}
	d.pending = true
	if d.timer == nil {
		// The env is the same value on every call for this session, so the
		// closure (and its Event) is built once and re-armed thereafter.
		env := e
		d.timer = e.Timers().Schedule(delay, func() { d.flush(env) })
	} else {
		d.timer.Reset(delay)
	}
}

// ackNow acknowledges immediately (gap/duplicate signals must not wait).
func (d *delayedAcker) ackNow(e mechanism.Env) { d.flush(e) }

// flush emits the coalesced cumulative ack.
func (d *delayedAcker) flush(e mechanism.Env) {
	if d.timer != nil {
		d.timer.Cancel()
	}
	if d.pending && d.sinceAck > 1 {
		saved := uint64(d.sinceAck - 1)
		d.Coalesced += saved
		e.Metrics().Count("rel.acks_coalesced", saved)
	}
	d.pending = false
	d.sinceAck = 0
	sendCumAck(e)
}

// stop cancels any pending delayed ack and emits it (segue handover: never
// strand an acknowledgment in a dying mechanism).
func (d *delayedAcker) stop(e mechanism.Env) {
	if d.pending {
		d.flush(e)
	} else {
		d.cancel()
	}
}

// cancel drops the delayed-ack timer without emitting (session teardown).
func (d *delayedAcker) cancel() {
	if d.timer != nil {
		d.timer.Cancel()
	}
}
