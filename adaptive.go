// Package adaptive is a Go implementation of ADAPTIVE — "A Dynamically
// Assembled Protocol Transformation, Integration, and Validation
// Environment" (Schmidt, Box, Suda; HPDC 1992): a flexible and adaptive
// transport system that configures lightweight protocol sessions from
// application quality-of-service requirements and network characteristics,
// and reconfigures them at run time under policy control.
//
// The three subsystems of the paper map onto this module as follows:
//
//   - MANTTS (Map Applications and Networks To Transport Systems) —
//     internal/mantts: ACD (Table 2), Transport Service Classes (Table 1),
//     the three-stage transformation, QoS negotiation, the network state
//     descriptor, and the TSA policy engine.
//   - TKO (Transport Kernel Objects) — internal/tko, internal/session and
//     the mechanism packages: the mechanism repository, synthesizer,
//     template cache, and the live session with segue.
//   - UNITES (UNIform Transport Evaluation Subsystem) — internal/unites:
//     blackbox/whitebox metric collection and the metric repository.
//
// A Node is one host's complete ADAPTIVE instance. Applications describe
// what they need in an ACD and call Dial; MANTTS chooses the policies
// (Stage I), derives the mechanisms (Stage II), and TKO synthesizes the
// session (Stage III):
//
//	node, _ := adaptive.NewNode(adaptive.WithProvider(network), adaptive.WithHost(hostID))
//	conn, _ := node.Dial(&adaptive.ACD{
//	    Participants: []adaptive.Addr{peer},
//	    RemotePort:   80,
//	    Quant:        adaptive.QuantQoS{AvgThroughputBps: 2e6, MaxLatency: 100 * time.Millisecond},
//	    Qual:         adaptive.QualQoS{Ordered: true},
//	}, nil)
//	conn.OnReceive(func(data []byte, eom bool) { ... })
//	conn.Send(payload)
//
// The package runs unmodified over two network providers: the deterministic
// discrete-event simulator (internal/netsim, used by every experiment) and
// real UDP sockets (internal/udpnet).
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adaptive/internal/arbiter"
	"adaptive/internal/event"
	"adaptive/internal/mantts"
	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/obsv"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
)

// Re-exported core types: the public vocabulary of the system.
type (
	// Addr is a transport address (host or multicast group + port).
	Addr = netapi.Addr
	// HostID identifies a host or multicast group.
	HostID = netapi.HostID
	// Provider is a pluggable network environment.
	Provider = netapi.Provider

	// ACD is the ADAPTIVE Communication Descriptor (paper Table 2).
	ACD = mantts.ACD
	// QuantQoS holds quantitative QoS parameters.
	QuantQoS = mantts.QuantQoS
	// QualQoS holds qualitative QoS parameters.
	QualQoS = mantts.QualQoS
	// TMC is the Transport Measurement Component.
	TMC = mantts.TMC
	// Rule is a TSA <condition, action> pair.
	Rule = mantts.Rule
	// Cond is a TSA condition.
	Cond = mantts.Cond
	// Action is a TSA action.
	Action = mantts.Action
	// TSC is a Transport Service Class (paper Table 1).
	TSC = mantts.TSC
	// StaticPathInfo seeds the network state descriptor with a-priori
	// link knowledge (Node.SeedPath).
	StaticPathInfo = mantts.StaticPathInfo

	// Spec is a Session Configuration Specification (SCS).
	Spec = mechanism.Spec
	// RecoveryKind, ConnKind, WindowKind, OrderKind name mechanism
	// choices within a Spec.
	RecoveryKind = mechanism.RecoveryKind
	ConnKind     = mechanism.ConnKind
	WindowKind   = mechanism.WindowKind
	OrderKind    = mechanism.OrderKind
	// Notification is a session event raised to the application.
	Notification = mechanism.Notification
	// NotificationKind enumerates session events.
	NotificationKind = mechanism.NotificationKind
	// Delivery is one received message unit.
	Delivery = session.Delivery
)

// Re-exported notification kinds.
const (
	NoteEstablished     = mechanism.NoteEstablished
	NoteClosed          = mechanism.NoteClosed
	NoteEstablishFailed = mechanism.NoteEstablishFailed
	NoteSegue           = mechanism.NoteSegue
	NotePeerReconfig    = mechanism.NotePeerReconfig
	NoteAppLoss         = mechanism.NoteAppLoss
	NoteSendQueueEmpty  = mechanism.NoteSendQueueEmpty
	NotePolicyAction    = mechanism.NotePolicyAction
	NotePeerDead        = mechanism.NotePeerDead
)

// Re-exported TSC constants.
const (
	TSCInteractiveIsochronous    = mantts.TSCInteractiveIsochronous
	TSCDistributionalIsochronous = mantts.TSCDistributionalIsochronous
	TSCRealTimeNonIsochronous    = mantts.TSCRealTimeNonIsochronous
	TSCNonRealTimeNonIsochronous = mantts.TSCNonRealTimeNonIsochronous
)

// Re-exported TSA vocabulary.
const (
	MetricRTT            = mantts.MetricRTT
	MetricLossRate       = mantts.MetricLossRate
	MetricCongestion     = mantts.MetricCongestion
	MetricRetransmitRate = mantts.MetricRetransmitRate
	MetricThroughputBps  = mantts.MetricThroughputBps
	MetricRcvBufFill     = mantts.MetricRcvBufFill
	MetricJitter         = mantts.MetricJitter
	MetricArbiterSqueeze = mantts.MetricArbiterSqueeze

	OpGT = mantts.OpGT
	OpLT = mantts.OpLT

	ActSetRecovery   = mantts.ActSetRecovery
	ActScaleRate     = mantts.ActScaleRate
	ActSetWindowSize = mantts.ActSetWindowSize
	ActSetWindowKind = mantts.ActSetWindowKind
	ActNotifyApp     = mantts.ActNotifyApp
)

// Re-exported mechanism kinds (for Specs, TSA actions, and templates).
const (
	ConnImplicit     = mechanism.ConnImplicit
	ConnExplicit2Way = mechanism.ConnExplicit2Way
	ConnExplicit3Way = mechanism.ConnExplicit3Way

	RecoveryNone            = mechanism.RecoveryNone
	RecoveryGoBackN         = mechanism.RecoveryGoBackN
	RecoverySelectiveRepeat = mechanism.RecoverySelectiveRepeat
	RecoveryFEC             = mechanism.RecoveryFEC
	RecoveryFECHybrid       = mechanism.RecoveryFECHybrid

	WindowFixed       = mechanism.WindowFixed
	WindowStopAndWait = mechanism.WindowStopAndWait
	WindowAdaptive    = mechanism.WindowAdaptive

	OrderNone      = mechanism.OrderNone
	OrderSequenced = mechanism.OrderSequenced
)

// options is the target NewNode's functional options write into.
type options struct {
	provider Provider
	host     HostID
	sapPort  uint16
	seed     int64
	observe  *Observe
	name     string
	arbiter  bool
}

// Option configures one aspect of a Node (functional options for NewNode).
type Option func(*options)

// WithProvider supplies the network and clock (netsim.Network or
// udpnet.Provider). Required.
func WithProvider(p Provider) Option { return func(o *options) { o.provider = p } }

// WithHost sets this node's identity on the provider.
func WithHost(h HostID) Option { return func(o *options) { o.host = h } }

// WithSAPPort overrides the transport service access point port.
func WithSAPPort(port uint16) Option { return func(o *options) { o.sapPort = port } }

// WithSeed feeds the node's deterministic randomness.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithName tags this node's metrics scope.
func WithName(name string) Option { return func(o *options) { o.name = name } }

// WithArbiter enables the per-host bandwidth arbiter: a congestion manager
// that aggregates loss, RTT-inflation, and environment congestion hints
// across every session dialed on this node into one shared bottleneck
// estimate, and divides the estimated capacity into per-session pacing
// budgets by Table-1 class policy (floors for isochronous classes, weighted
// shares above them, work-conserving redistribution). Sessions receive
// budget changes through Conn.OnBudgetChange; arbiter state appears as
// adaptive_arbiter_* gauges on the observability plane's /metrics.
func WithArbiter() Option { return func(o *options) { o.arbiter = true } }

// Node is one host's complete ADAPTIVE transport system instance: a
// protocol graph (TKO), a MANTTS entity, and UNITES instrumentation.
type Node struct {
	provider Provider
	stack    *protograph.Stack
	entity   *mantts.Entity
	obs      *Observability
	arb      *arbiter.Arbiter
	name     string

	hintPoll *event.Event     // arbiter congestion-hint poller; nil without one
	conns    map[uint32]*Conn // handles of the live connections, by ConnID
}

// NewNode brings up ADAPTIVE on a host.
func NewNode(opts ...Option) (*Node, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	if o.provider == nil {
		return nil, fmt.Errorf("adaptive: a Provider is required (WithProvider)")
	}
	name := o.name
	if name == "" {
		name = fmt.Sprintf("%v", o.host)
	}
	obs := o.observe
	var (
		repo   *unites.Repository
		tracer *trace.Recorder
		owned  bool
	)
	if obs != nil {
		repo = obs.Repository
		if repo == nil {
			repo = unites.NewRepository()
		}
		tracer = obs.Tracer
		if tracer == nil && obs.TraceBuffer > 0 {
			// Node-owned recorder: the only kind the node installs live
			// streaming on — externally-owned recorders keep their owner's
			// collection discipline.
			tracer = trace.NewRecorder(obs.TraceBuffer)
			if obs.TraceSample > 1 {
				if err := tracer.SetSample(obs.TraceSample); err != nil {
					return nil, err
				}
			}
			owned = true
		}
	}
	var mf protograph.MetricFactory
	if repo != nil {
		sink := repo.SinkFor(name)
		mf = func(connID uint32) mechanism.MetricSink { return sink(connID) }
	}
	stack, err := protograph.NewStack(protograph.Config{
		Provider: o.provider,
		Host:     o.host,
		SAPPort:  o.sapPort,
		Seed:     o.seed,
		Metrics:  mf,
		Tracer:   tracer,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{provider: o.provider, stack: stack, entity: mantts.NewEntity(stack), name: name,
		conns: make(map[uint32]*Conn)}
	stack.OnTerminal(func(s *session.Session) {
		if c := n.conns[s.ConnID()]; c != nil {
			c.finish()
			delete(n.conns, s.ConnID())
		}
		if repo != nil {
			// Per-connection detail ends at close: the recorder folds into
			// the host's retired totals.
			repo.Retire(name, s.ConnID())
		}
	})
	if o.arbiter {
		n.arb = arbiter.New(arbiter.Policy{})
		n.entity.SetArbiter(n.arb)
		n.startHintPoller(o.provider)
	}
	n.obs = &Observability{}
	if obs != nil {
		var recs []*trace.Recorder
		if owned {
			recs = []*trace.Recorder{tracer}
		}
		plane, err := obsv.New(obsv.Options{
			Repository: repo,
			Recorders:  recs,
			FlushEvery: obs.TraceFlush,
			Archive:    obs.TraceArchive,
			Counters:   obs.Counters,
		})
		if err != nil {
			return nil, err
		}
		n.obs = &Observability{plane: plane, repo: repo, rec: tracer, owned: owned}
		if obs.Listen != "" {
			if _, err := plane.Serve(obs.Listen); err != nil {
				plane.Close()
				return nil, err
			}
		}
	}
	if n.arb != nil {
		// Arbiter state rides the same plane as every other process gauge
		// (rendered adaptive_arbiter_* on /metrics).
		n.obs.RegisterCounters(n.arb.MetricCounters())
	}
	n.obs.RegisterCounters(stack.MetricCounters())
	return n, nil
}

// hintPollEvery is the cadence of the environment congestion-hint poll.
const hintPollEvery = 100 * time.Millisecond

// startHintPoller turns a provider's drop counters into ECN-like arbiter
// hints: when the environment (the impair shim's fault plan, the udpnet
// loop's shed posts) discards packets between polls, the arbiter learns of
// congestion no single session's signal can attribute. Providers without
// drop counters (plain netsim) contribute nothing; loss and RTT inflation
// carry the signal there.
func (n *Node) startHintPoller(p Provider) {
	type pktDrops interface{ DroppedPackets() uint64 }
	type postDrops interface{ DroppedPosts() uint64 }
	var read func() uint64
	switch d := p.(type) {
	case pktDrops:
		read = d.DroppedPackets
	case postDrops:
		read = d.DroppedPosts
	}
	if read == nil {
		return
	}
	clock := n.stack.Clock()
	last := read()
	n.hintPoll = n.stack.Timers().SchedulePeriodic(hintPollEvery, hintPollEvery, func() {
		if d := read(); d != last {
			last = d
			n.arb.Hint(clock.Now())
		}
	})
}

// ArbiterStatus is a scrape-safe snapshot of the bandwidth arbiter.
type ArbiterStatus struct {
	Enabled     bool
	CapacityBps float64 // shared bottleneck estimate
	Sessions    int     // sessions under arbitration
	Grants      uint64  // budget deliveries
	Decreases   uint64  // multiplicative decreases
	Hints       uint64  // environment congestion hints accepted
}

// ArbiterStatus reports the bandwidth arbiter's current state (zero value
// when the node runs without WithArbiter). Safe from any goroutine.
func (n *Node) ArbiterStatus() ArbiterStatus {
	if n.arb == nil {
		return ArbiterStatus{}
	}
	c := n.arb.MetricCounters()
	return ArbiterStatus{
		Enabled:     true,
		CapacityBps: float64(c["arbiter.capacity_bps"]()),
		Sessions:    int(c["arbiter.sessions"]()),
		Grants:      n.arb.Grants(),
		Decreases:   n.arb.Decreases(),
		Hints:       n.arb.Hints(),
	}
}

// Observability returns the node's observability handle. It is never nil;
// Enabled() reports whether a plane was configured (WithObservability).
func (n *Node) Observability() *Observability { return n.obs }

// Close releases node resources. Every session still open — dialled, accepted
// or multicast — goes through its terminal transition abortively (nothing is
// transmitted; owners hear NoteClosed or NoteEstablishFailed), the arbiter's
// hint poller and every probing campaign are canceled and the stack's
// out-of-band channels forgotten, unacknowledged documents and their
// retransmission timers included, so no timer of this node is left pending;
// then the node's endpoint is closed (a closed node answers nothing, and its
// host identity can be opened again), the observability plane's trace stream
// is flushed and its HTTP endpoint stops.
// The teardown runs on the provider's event loop when the provider has one
// that is still up, and inline when it was closed first or is a simulation
// (call it from the goroutine that steps the kernel, not from inside an
// upcall of a live provider).
func (n *Node) Close() error {
	n.onLoop(func() {
		for _, s := range n.stack.Sessions() {
			s.Abort("node closed")
		}
		if n.hintPoll != nil {
			n.hintPoll.Cancel()
		}
		n.entity.Shutdown()
		n.stack.Shutdown()
	})
	return errors.Join(n.stack.Endpoint().Close(), n.obs.Close())
}

// onLoop runs fn where the node's protocol code runs: on the provider's event
// loop when it has one still running (udpnet, or a shim in front of it),
// inline otherwise — a simulated provider, or a live one closed already, whose
// loop has exited and can no longer race with fn.
func (n *Node) onLoop(fn func()) {
	ran := false
	if w, ok := n.provider.(interface{ Wait(func()) }); ok {
		w.Wait(func() { ran = true; fn() })
	}
	if !ran {
		fn()
	}
}

// Stack exposes the protocol graph (advanced use and experiments).
func (n *Node) Stack() *protograph.Stack { return n.stack }

// Entity exposes the MANTTS entity (network seeding, probing, multicast
// membership management).
func (n *Node) Entity() *mantts.Entity { return n.entity }

// Addr returns the node's transport SAP address.
func (n *Node) Addr() Addr { return n.stack.LocalAddr() }

// SeedPath installs a-priori network knowledge about a peer (bandwidth,
// RTT, BER, MTU) into the MANTTS network state descriptor.
func (n *Node) SeedPath(peer HostID, info mantts.StaticPathInfo) {
	n.entity.NetState().Seed(peer, info)
}

// ProbeContext starts periodic RTT probing toward a peer, replacing any
// existing campaign for that peer. Probing stops when ctx is canceled
// (observed at the next tick) or when the returned stop func runs; both
// are idempotent.
func (n *Node) ProbeContext(ctx context.Context, peer HostID, every time.Duration) (stop func()) {
	return n.entity.StartProbingCtx(ctx, peer, every)
}

// Subscribe registers a listener for node-wide session events
// (establishment, loss, policy actions, peer reconfigurations) alongside
// any other listeners. Listeners fire in registration order on the node's
// event loop — return quickly and do not call back into the node from the
// listener. The returned cancel is idempotent.
func (n *Node) Subscribe(fn func(connID uint32, note Notification)) (cancel func()) {
	return n.entity.SubscribeNotes(fn)
}

// DialOptions names the optional per-dial parameters (replacing the opaque
// trailing integer argument of the pre-1.0 Dial signature). The zero value
// — or a nil *DialOptions — keeps every default.
type DialOptions struct {
	// LocalPort fixes the local transport port; 0 selects an ephemeral one.
	LocalPort uint16
	// EstablishTimeout bounds connection establishment: handshake retries
	// back off exponentially and the dial fails (NoteEstablishFailed) once
	// this much session-clock time passes. Zero keeps only the retry-count
	// bound.
	EstablishTimeout time.Duration
	// Keepalive enables dead-peer detection: an idle established connection
	// probes the peer this often and raises NotePeerDead after DeadInterval
	// of silence. Zero disables keepalives.
	Keepalive time.Duration
	// DeadInterval is the silence threshold for declaring the peer dead;
	// it defaults to three Keepalive periods.
	DeadInterval time.Duration
}

// Dial opens a connection described by an ACD. MANTTS performs the full
// three-stage transformation; the returned Conn is usable immediately (data
// queues until establishment completes). opts may be nil.
func (n *Node) Dial(acd *ACD, opts *DialOptions) (*Conn, error) {
	return n.DialContext(context.Background(), acd, opts)
}

// DialContext is Dial under a context: cancellation or deadline expiry
// aborts establishment retry (the connection reports NoteEstablishFailed).
//
// The session may run on a virtual clock (netsim); a context deadline is
// mapped to an equivalent session-clock establishment timeout at dial time,
// and cancellation is observed by a session timer polling ctx between
// handshake events — deterministic under simulation, prompt over UDP.
func (n *Node) DialContext(ctx context.Context, acd *ACD, opts *DialOptions) (*Conn, error) {
	do, err := dialOptionsUnder(ctx, opts)
	if err != nil {
		return nil, err
	}
	m, err := n.entity.OpenSessionWith(acd, mantts.OpenOptions{
		LocalPort:  do.LocalPort,
		AdjustSpec: func(s *Spec) { do.applyTo(s) },
	})
	if err != nil {
		return nil, err
	}
	c := n.newConn(m.Session, m)
	n.watchContext(ctx, c)
	return c, nil
}

// DialSpec bypasses MANTTS and opens a session with an explicit SCS
// (experiments and backward-compatibility templates).
func (n *Node) DialSpec(spec Spec, peer Addr, localPort, peerPort uint16) (*Conn, error) {
	return n.DialSpecContext(context.Background(), spec, peer, localPort, peerPort)
}

// DialSpecContext is DialSpec under a context (see DialContext).
func (n *Node) DialSpecContext(ctx context.Context, spec Spec, peer Addr, localPort, peerPort uint16) (*Conn, error) {
	if _, err := dialOptionsUnder(ctx, nil); err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); spec.EstablishTimeout == 0 || rem < spec.EstablishTimeout {
			spec.EstablishTimeout = rem
		}
	}
	s, _, err := n.stack.CreateActiveSession(&spec, peer, localPort, peerPort)
	if err != nil {
		return nil, err
	}
	s.Open()
	c := n.newConn(s, nil)
	n.watchContext(ctx, c)
	return c, nil
}

// dialOptionsUnder folds a context's deadline into the dial options and
// rejects an already-expired context.
func dialOptionsUnder(ctx context.Context, opts *DialOptions) (DialOptions, error) {
	var do DialOptions
	if opts != nil {
		do = *opts
	}
	if err := ctx.Err(); err != nil {
		return do, err
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return do, context.DeadlineExceeded
		}
		if do.EstablishTimeout == 0 || rem < do.EstablishTimeout {
			do.EstablishTimeout = rem
		}
	}
	return do, nil
}

// applyTo writes the dial-time knobs into the derived SCS.
func (do DialOptions) applyTo(s *Spec) {
	if do.EstablishTimeout > 0 {
		s.EstablishTimeout = do.EstablishTimeout
	}
	if do.Keepalive > 0 {
		s.KeepaliveInterval = do.Keepalive
		s.DeadInterval = do.DeadInterval // Normalize defaults it to 3x
	}
}

// watchContext aborts an in-progress establishment when ctx is canceled. A
// context without cancellation costs nothing. Observation runs on the
// session's timer wheel rather than a goroutine, so it is deterministic
// under the single-threaded simulation kernel.
func (n *Node) watchContext(ctx context.Context, c *Conn) {
	if ctx.Done() == nil || c.sess == nil {
		return
	}
	const pollEvery = 10 * time.Millisecond
	c.watch = n.stack.Timers().SchedulePeriodic(pollEvery, pollEvery, func() {
		if c.sess.Established() {
			c.watch.Cancel()
		} else if err := ctx.Err(); err != nil {
			c.sess.AbortEstablish("dial canceled: " + err.Error()) // finish stops the poll
		}
	})
}

// Listen accepts connections on a transport port. The accept callback runs
// before any data is delivered. adjust (optional) implements the local half
// of QoS negotiation: it may modify the peer's proposed Spec.
func (n *Node) Listen(port uint16, adjust func(proposed *Spec, from Addr) *Spec, accept func(*Conn)) error {
	return n.stack.Listen(port, &protograph.Listener{
		Adjust: adjust,
		OnAccept: func(s *session.Session) {
			// Sessions without an ack stream report delivered quality
			// back over the signaling channel so the sender's policy
			// engine sees loss (§4.3 feedback to MANTTS).
			if !s.CurrentSlots().Recovery.Reliable() {
				n.entity.StartQualityReports(s, s.PeerAddr())
			}
			accept(n.newConn(s, nil))
		},
	})
}

// Unlisten removes a listener from a port.
func (n *Node) Unlisten(port uint16) { n.stack.Unlisten(port) }

// OnMulticastJoin installs the handler invoked when this node is invited
// into a multicast session.
func (n *Node) OnMulticastJoin(fn func(c *Conn, group HostID)) {
	n.entity.OnMulticastAccept = func(s *session.Session, group HostID) {
		fn(n.newConn(s, nil), group)
	}
}
