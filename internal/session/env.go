package session

import (
	"math/rand"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// sessionEnv adapts a *Session to the mechanism.Env interface. It is a
// separate type (rather than Session implementing Env directly) so the
// session's public API stays free of mechanism-facing methods.
type sessionEnv struct{ s *Session }

var _ mechanism.Env = sessionEnv{}

func (s *Session) env() mechanism.Env { return sessionEnv{s} }

func (e sessionEnv) Clock() netapi.Clock             { return e.s.clock }
func (e sessionEnv) Timers() *event.Manager          { return e.s.timers }
func (e sessionEnv) Rand() *rand.Rand                { return e.s.rng }
func (e sessionEnv) Metrics() mechanism.MetricSink   { return e.s.metrics }
func (e sessionEnv) Tracer() *trace.Recorder         { return e.s.tracer }
func (e sessionEnv) ConnID() uint32                  { return e.s.id.ConnID }
func (e sessionEnv) State() *mechanism.TransferState { return e.s.state }
func (e sessionEnv) Spec() *mechanism.Spec           { return e.s.spec }

// EmitControl transmits a control PDU immediately. Multicast receiver
// sessions suppress ACK/NAK emission so n receivers don't implode the
// sender (the reliability trade-off that makes the paper pick loss-tolerant
// mechanisms for multicast TSCs).
func (e sessionEnv) EmitControl(p *wire.PDU) {
	if e.s.spec.Multicast && (p.Type == wire.TAck || p.Type == wire.TNak) {
		e.s.metrics.Count("pdu.acks_suppressed", 1)
		return
	}
	e.s.transmitPDU(p)
}

// EmitData re-transmits an already-sequenced data PDU (retransmissions).
func (e sessionEnv) EmitData(p *wire.PDU) { e.s.transmitPDU(p) }

func (e sessionEnv) ReleaseData(seq uint32, m *message.Message, eom bool) {
	e.s.releaseData(seq, m, eom)
}

func (e sessionEnv) Pump() { e.s.pump() }

func (e sessionEnv) Notify(n mechanism.Notification) { e.s.notify(n) }

// ApplySpec adopts a peer-negotiated configuration. Mechanisms have no
// error path for a failed adoption; failures are counted by the session
// ("session.applyspec_errors") and the old configuration stays in force.
func (e sessionEnv) ApplySpec(sp *mechanism.Spec) { _ = e.s.ApplySpec(sp) }

func (e sessionEnv) WindowOnLoss() {
	e.s.slots.Window.OnLoss()
	e.s.metrics.Count("win.loss_events", 1)
}

func (e sessionEnv) SkipTo(seq uint32) {
	if e.s.done {
		return
	}
	for _, d := range e.s.slots.Orderer.Skip(seq) {
		e.s.deliver(d)
	}
}
