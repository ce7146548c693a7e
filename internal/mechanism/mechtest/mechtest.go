// Package mechtest provides a fake mechanism.Env for unit-testing protocol
// mechanisms in isolation from the session and network.
package mechtest

import (
	"math/rand"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// Env is a recording fake for mechanism.Env backed by a real simulation
// kernel (so timers behave) and an in-memory event log.
type Env struct {
	Kernel  *sim.Kernel
	TimerMg *event.Manager
	Rng     *rand.Rand
	SpecV   *mechanism.Spec
	StateV  *mechanism.TransferState

	Control      []*wire.PDU // EmitControl log (headers + payload copies)
	Data         []*wire.PDU // EmitData log
	Released     []mechanism.Delivery
	Notes        []mechanism.Notification
	Pumps        int
	Skips        []uint32
	WindowLosses int
	Applied      []*mechanism.Spec
	Sink         *CountSink
}

// CountSink is a counting MetricSink.
type CountSink struct {
	Counts  map[string]uint64
	Samples map[string][]float64
}

func (c *CountSink) Count(name string, d uint64)   { c.Counts[name] += d }
func (c *CountSink) Sample(name string, v float64) { c.Samples[name] = append(c.Samples[name], v) }
func (c *CountSink) Gauge(string, float64)         {}

// New builds a fake env with the given spec (nil = DefaultSpec).
func New(spec *mechanism.Spec) *Env {
	if spec == nil {
		d := mechanism.DefaultSpec()
		spec = &d
	}
	spec.Normalize()
	k := sim.NewKernel(1)
	net := netsim.New(k)
	return &Env{
		Kernel:  k,
		TimerMg: event.NewManager(net.Clock()),
		Rng:     rand.New(rand.NewSource(1)),
		SpecV:   spec,
		StateV:  mechanism.NewTransferState(spec.RcvBufPDUs, spec.RTOInit),
		Sink:    &CountSink{Counts: map[string]uint64{}, Samples: map[string][]float64{}},
	}
}

var _ mechanism.Env = (*Env)(nil)

func (e *Env) Clock() netapi.Clock             { return e.TimerMg.Clock() }
func (e *Env) Timers() *event.Manager          { return e.TimerMg }
func (e *Env) Rand() *rand.Rand                { return e.Rng }
func (e *Env) Metrics() mechanism.MetricSink   { return e.Sink }
func (e *Env) Tracer() *trace.Recorder         { return nil }
func (e *Env) ConnID() uint32                  { return 0xc0ffee }
func (e *Env) State() *mechanism.TransferState { return e.StateV }
func (e *Env) Spec() *mechanism.Spec           { return e.SpecV }
func (e *Env) Pump()                           { e.Pumps++ }
func (e *Env) WindowOnLoss()                   { e.WindowLosses++ }
func (e *Env) SkipTo(seq uint32)               { e.Skips = append(e.Skips, seq) }
func (e *Env) ApplySpec(s *mechanism.Spec)     { e.Applied = append(e.Applied, s) }

func (e *Env) Notify(n mechanism.Notification) { e.Notes = append(e.Notes, n) }

func (e *Env) EmitControl(p *wire.PDU) { e.Control = append(e.Control, snapshot(p)) }
func (e *Env) EmitData(p *wire.PDU)    { e.Data = append(e.Data, snapshot(p)) }

func (e *Env) ReleaseData(seq uint32, m *message.Message, eom bool) {
	e.Released = append(e.Released, mechanism.Delivery{Seq: seq, Msg: m, EOM: eom})
}

// snapshot copies a PDU so the log survives payload releases.
func snapshot(p *wire.PDU) *wire.PDU {
	cp := &wire.PDU{Header: p.Header}
	if p.Payload != nil {
		cp.Payload = message.NewFromBytes(p.Payload.Bytes())
	}
	return cp
}

// LastControl returns the most recent control PDU of the given type, or nil.
func (e *Env) LastControl(t wire.Type) *wire.PDU {
	for i := len(e.Control) - 1; i >= 0; i-- {
		if e.Control[i].Type == t {
			return e.Control[i]
		}
	}
	return nil
}

// ControlCount counts control PDUs of a type.
func (e *Env) ControlCount(t wire.Type) int {
	n := 0
	for _, p := range e.Control {
		if p.Type == t {
			n++
		}
	}
	return n
}

// DataPDU builds a data PDU with the given seq and payload.
func DataPDU(seq uint32, payload string) *wire.PDU {
	return &wire.PDU{
		Header:  wire.Header{Type: wire.TData, Seq: seq},
		Payload: message.NewFromBytes([]byte(payload)),
	}
}

// SentEntry installs a retransmission-buffer entry (sender-side test setup).
func (e *Env) SentEntry(seq uint32, payload string, at time.Duration) {
	p := DataPDU(seq, payload)
	e.StateV.Unacked.Set(seq, &mechanism.SentPDU{PDU: p, SentAt: at})
	if e.StateV.SndNxt <= seq {
		e.StateV.SndNxt = seq + 1
	}
}

// ReleasedPayloads renders the released deliveries as strings in order.
func (e *Env) ReleasedPayloads() []string {
	out := make([]string, len(e.Released))
	for i, d := range e.Released {
		out[i] = string(d.Msg.Bytes())
	}
	return out
}
