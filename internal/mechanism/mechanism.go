// Package mechanism defines the abstract interfaces of the TKO session
// architecture (ADAPTIVE §4.2.2).
//
// The paper organizes fine-grain session functionality as C++ inheritance
// hierarchies rooted at abstract base classes — connection management,
// transmission management, reliability management, sequencing — whose
// concrete subclasses are composed into a TKO_Context. Here each base class
// is a Go interface; internal/conn, internal/xmit, internal/reliable and
// internal/order provide the concrete derived implementations, and
// internal/session composes them into a running session.
//
// Every mechanism that carries transfer-critical state implements
// StateCarrier so the segue operation (runtime mechanism replacement without
// data loss) can hand state between old and new instances.
package mechanism

import (
	"math/rand"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// Mechanism is implemented by every pluggable component.
type Mechanism interface {
	// Name identifies the concrete mechanism (e.g. "selective-repeat").
	Name() string
}

// NotificationKind enumerates events mechanisms raise toward the session's
// owner (the application callback and the MANTTS policy engine).
type NotificationKind int

const (
	NoteEstablished NotificationKind = iota // connection is open for data
	NoteClosed                              // connection fully terminated
	NoteEstablishFailed
	NoteSegue          // a mechanism was replaced at run time
	NotePeerReconfig   // peer requested/announced a reconfiguration
	NoteAppLoss        // data was irrecoverably lost (loss-tolerant mode)
	NoteSendQueueEmpty // all submitted data acked/flushed
	NotePolicyAction   // a TSA rule fired (detail describes the action)
	NotePeerDead       // keepalive dead-peer detection declared the peer gone
)

// Notification carries an event and optional detail to the session owner.
type Notification struct {
	Kind   NotificationKind
	Detail string
}

// MetricSink receives whitebox metric updates from mechanisms; UNITES
// implements it (§4.3). Mechanisms never format or aggregate — they only
// emit.
type MetricSink interface {
	Count(name string, delta uint64)
	Sample(name string, v float64)
	Gauge(name string, v float64)
}

// NopSink discards metrics (for tests of bare mechanisms).
type NopSink struct{}

func (NopSink) Count(string, uint64)   {}
func (NopSink) Sample(string, float64) {}
func (NopSink) Gauge(string, float64)  {}

// Env is the view a mechanism has of its enclosing TKO_Session. The session
// implements it; mechanisms hold no other reference to the session, which is
// what keeps them individually replaceable.
type Env interface {
	Clock() netapi.Clock
	Timers() *event.Manager
	Rand() *rand.Rand
	Metrics() MetricSink
	// Tracer returns the session's flight recorder; nil when tracing is
	// disabled (hooks must tolerate nil — trace.Recorder methods do).
	Tracer() *trace.Recorder

	// ConnID returns the session's connection identifier.
	ConnID() uint32

	// EmitControl encodes and transmits a control PDU (ACK, NAK, handshake,
	// parity) immediately, bypassing window and rate gating.
	EmitControl(p *wire.PDU)
	// EmitData transmits a data PDU subject only to the wire (used for
	// retransmissions and FEC emission; window accounting already done).
	EmitData(p *wire.PDU)

	// ReleaseData hands receiver-side data up to the sequencing mechanism
	// and the application.
	ReleaseData(seq uint32, m *message.Message, eom bool)
	// Pump asks the session to re-run its transmit loop (e.g. after the
	// window opened or a rate-gap elapsed).
	Pump()

	// Notify raises an event to the session owner.
	Notify(n Notification)

	// State exposes the shared transfer state (sequence numbers,
	// retransmission and reassembly buffers) that survives segue.
	State() *TransferState

	// Spec returns the session's current configuration.
	Spec() *Spec
	// ApplySpec installs a (negotiation-adjusted) configuration,
	// re-synthesizing any mechanism whose kind or parameters changed.
	ApplySpec(s *Spec)

	// WindowOnLoss reports a loss event to the transmission-window
	// mechanism (adaptive windows shrink).
	WindowOnLoss()
	// SkipTo abandons receiver sequences below seq (loss-tolerant gap
	// abandonment), releasing any held-back later data to the application.
	SkipTo(seq uint32)
}

// StateCarrier lets segue move mechanism-private state between an old and a
// new instance. Export runs on the outgoing instance, Import on the incoming
// one; Import receives exactly what Export produced (or nil when switching
// from a mechanism without state).
type StateCarrier interface {
	ExportState() any
	ImportState(st any)
}

// ConnManager is the connection-management base class: implicit (config
// piggybacked on the first data PDU), explicit two-way, and explicit
// three-way handshakes, plus graceful/abortive termination (§4.1.1, §4.1.3).
type ConnManager interface {
	Mechanism
	// StartActive begins an active open toward the peer.
	StartActive(e Env)
	// StartPassive prepares the passive side (listener-spawned session).
	StartPassive(e Env)
	// OnPDU processes a connection-management PDU; it reports whether the
	// PDU was consumed.
	OnPDU(e Env, p *wire.PDU) bool
	// Established reports whether data may flow.
	Established() bool
	// Piggyback returns a config blob to attach to the first outgoing data
	// PDU, or nil (implicit connection setup).
	Piggyback(e Env) []byte
	// Close initiates termination; graceful waits for data drain
	// elsewhere — the session only calls Close once its send queue is
	// empty when graceful.
	Close(e Env, graceful bool)
	// Abort tears the connection down immediately without handshaking:
	// an unestablished connection reports NoteEstablishFailed (canceled
	// dial), an established one NoteClosed. Used by context cancellation
	// and dead-peer detection.
	Abort(e Env, why string)
	// Closed reports whether termination has completed.
	Closed() bool
}

// Window is the transmission-management base class controlling how many PDUs
// may be in flight (sliding window, stop-and-wait, adaptive/slow-start).
type Window interface {
	Mechanism
	// CanSend reports whether another data PDU may enter flight given the
	// current in-flight count and the peer's advertised window.
	CanSend(inFlight int, peerAdvert int) bool
	// OnAck informs the policy that acked PDUs left the network.
	OnAck(ackedPDUs int)
	// OnLoss informs the policy of a loss event (adaptive windows shrink).
	OnLoss()
	// Size returns the current local window in PDUs.
	Size() int
}

// Rate is the rate-control base class pacing transmissions by inter-PDU gap
// (the mechanism ADAPTIVE's congestion policy adjusts — §4.1.2).
type Rate interface {
	Mechanism
	// Delay returns how long transmission of a size-byte PDU must wait
	// from now; zero means send immediately.
	Delay(now time.Duration, size int) time.Duration
	// OnSent records a transmission for pacing bookkeeping.
	OnSent(now time.Duration, size int)
	// SetRate changes the pacing rate in bits/sec (0 disables pacing).
	SetRate(bps float64)
	// RateBps returns the current pacing rate (0 = unpaced).
	RateBps() float64
}

// Recovery is the reliability-management composite (Figure 5): error
// reporting (acks/naks) and error recovery (retransmission or forward error
// correction). Error detection is the checksum kind carried in the Spec and
// enforced at wire decode. Recovery instances are replaced in their entirety
// during segue, as the paper prescribes for composite components.
type Recovery interface {
	Mechanism
	StateCarrier

	// --- sender side ---

	// OnSendData is called when a fresh data PDU enters flight; reliable
	// strategies buffer it for retransmission.
	OnSendData(e Env, p *wire.PDU)
	// OnAck processes a cumulative acknowledgment.
	OnAck(e Env, p *wire.PDU)
	// OnNak processes a selective negative acknowledgment.
	OnNak(e Env, p *wire.PDU)
	// OnRTO fires on retransmission timeout.
	OnRTO(e Env)

	// --- receiver side ---

	// OnData processes an arriving data PDU (delivery via e.ReleaseData).
	OnData(e Env, p *wire.PDU)
	// OnParity processes an FEC parity PDU.
	OnParity(e Env, p *wire.PDU)

	// Reliable reports whether the strategy guarantees delivery (drives
	// graceful-close semantics and send-buffer retention).
	Reliable() bool
	// UsesRTO reports whether the strategy acts on OnRTO, so the session
	// keeps the retransmission timer armed for it. Every reliable strategy
	// does; pure FEC does too (it abandons outstanding data on expiry); for
	// one that does not, a standing timer would fire spuriously forever.
	UsesRTO() bool

	// --- lifecycle ---

	// Handover runs on the outgoing instance before a segue replaces it or a
	// migration exports the session: it emits what the strategy is holding
	// back (a partial parity group, a delayed acknowledgment) and stops the
	// timer that would have emitted it, so nothing strands in an instance
	// that is about to be left behind.
	Handover(e Env)
	// Stop cancels the strategy's timers and emits nothing (the session's
	// terminal transition).
	Stop()
}

// Orderer is the sequencing base class deciding delivery order and duplicate
// handling between recovery and the application.
type Orderer interface {
	Mechanism
	// Submit accepts a PDU released by recovery and returns zero or more
	// deliveries now due, in delivery order.
	Submit(seq uint32, m *message.Message, eom bool) []Delivery
	// Skip abandons sequences below seq, releasing anything deliverable;
	// order-insensitive mechanisms return nil.
	Skip(seq uint32) []Delivery
	// Flush releases anything held back (connection teardown).
	Flush() []Delivery
}

// Delivery is one unit handed to the application.
type Delivery struct {
	Seq uint32
	Msg *message.Message
	EOM bool
}
