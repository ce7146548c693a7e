package mantts

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adaptive/internal/arbiter"
	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
)

// Signal message types carried over the out-of-band signaling channel
// (Figure 3: control path separate from the data path). All but the quality
// report ride the stack's reliable channel (protograph.Stack.SendDoc). Type 5
// is not reused: it was the signaling-level acknowledgment the channel
// replaced.
const (
	sigReconfig   uint8 = 1 // coordinated SCS change for a live session
	sigJoinInvite uint8 = 2 // multicast membership setup
	sigJoinAck    uint8 = 3
	sigLeave      uint8 = 4
	sigQualReport uint8 = 6 // receiver quality report (loss feedback when
	//                         acks are suppressed, e.g. multicast)
)

// signal is one message on the signaling channel. A field its type does not
// carry is zero and stays off the wire. Tag 2 is not reused: it carried the
// sequence number the channel now keeps in the PDU header.
type signal struct {
	Type   uint8
	ConnID uint32 // the session
	Spec   []byte // reconfig, join invite: mechanism.EncodeSpec blob
	Group  uint32 // join invite: the multicast group
	Port   uint16 // join invite: the session's port
	Loss   uint64 // quality report: loss fraction * 1e9, sent even when 0
}

// fields is the signal's TLV table, in the order fields go out.
func (m *signal) fields() [6]wire.Field {
	return [...]wire.Field{
		{Tag: 1, Form: wire.U8, At: &m.Type},
		{Tag: 3, Form: wire.U32, At: &m.ConnID},
		{Tag: 4, Form: wire.Bytes, At: &m.Spec, Omit: len(m.Spec) == 0},
		{Tag: 5, Form: wire.U32, At: &m.Group, Omit: m.Group == 0},
		{Tag: 6, Form: wire.U16, At: &m.Port, Omit: m.Port == 0},
		{Tag: 7, Form: wire.U64, At: &m.Loss, Omit: m.Loss == 0 && m.Type != sigQualReport},
	}
}

// qualReportPeriod is how often a multicast receiver reports delivered
// quality back to the sender's MANTTS entity.
const qualReportPeriod = 250 * time.Millisecond

// ErrNotMulticast reports a membership operation on a unicast session.
var ErrNotMulticast = errors.New("mantts: session is not multicast")

// Managed couples a session with its policy machinery.
type Managed struct {
	Session *session.Session
	ACD     *ACD
	TSC     TSC
	Engine  *Engine

	// OnBudget, when set, receives every bandwidth-arbiter grant for this
	// session (the content-adaptation hook: a video source steps its
	// bitrate ladder here). Runs on the provider event loop.
	OnBudget func(budgetBps float64)

	peerHost netapi.HostID
	members  map[netapi.HostID]bool // multicast membership (sender side)
	group    netapi.Addr

	sampler *event.Event
	// Deltas for rate-style metrics.
	lastSent, lastRetx, lastDelivered uint64
	lastSampleAt                      time.Duration
}

// Members returns the current multicast membership (sender side).
func (m *Managed) Members() []netapi.HostID {
	out := make([]netapi.HostID, 0, len(m.members))
	for h := range m.members {
		out = append(out, h)
	}
	return out
}

// Entity is a host's MANTTS instance: it owns the signaling channel, the
// network state descriptor, session configuration, and run-time policy.
type Entity struct {
	stack    *protograph.Stack
	netstate *NetState
	managed  map[uint32]*Managed
	arb      *arbiter.Arbiter // optional host bandwidth arbiter

	// Notification subscribers (SubscribeNotes): the application-facing
	// call-back reconfiguration path (§4.1.2 "Application-Specific"), shared
	// by user code and tooling. The list is copy-on-write:
	// notifyApp, which runs on the provider event loop per delivered note,
	// takes one atomic load; Subscribe/cancel (rare, any goroutine) copy
	// under subMu and swap.
	subMu     sync.Mutex
	subs      atomic.Pointer[[]noteSub]
	nextSubID int

	// OnMulticastAccept is invoked when a JoinInvite creates a local
	// receiving session; applications install receivers here, and the
	// harness joins the host to the group at the network level.
	OnMulticastAccept func(s *session.Session, group netapi.HostID)

	probeTimers map[netapi.HostID]*event.Event
	reports     map[uint32]*event.Event // receiver quality-report tickers by ConnID

	// tx and rx hold the signal being sent or decoded, so the tables that
	// point into them point into the entity, not at a heap copy per signal.
	tx, rx signal
}

// NewEntity attaches a MANTTS entity to a stack (installing itself as the
// stack's out-of-band signal handler).
func NewEntity(stack *protograph.Stack) *Entity {
	e := &Entity{
		stack:       stack,
		netstate:    NewNetState(),
		managed:     make(map[uint32]*Managed),
		probeTimers: make(map[netapi.HostID]*event.Event),
		reports:     make(map[uint32]*event.Event),
	}
	stack.SignalHandler = e.onSignal
	stack.OnTerminal(e.sessionEnded)
	return e
}

// NetState exposes the network state descriptor (seeding, inspection).
func (e *Entity) NetState() *NetState { return e.netstate }

// SetArbiter installs the host bandwidth arbiter: every session opened
// after this call registers with it, feeds it congestion signals from the
// policy sampler, and has its pacing governed by the arbiter's grants.
// Call before opening sessions (typically at node construction).
func (e *Entity) SetArbiter(a *arbiter.Arbiter) { e.arb = a }

// demandFor derives a session's bandwidth appetite from its ACD: the peak
// throughput quantification when declared, else the average, else the
// arbiter's per-session minimum.
func demandFor(acd *ACD, pol arbiter.Policy) float64 {
	d := acd.Quant.PeakThroughputBps
	if d == 0 {
		d = acd.Quant.AvgThroughputBps
	}
	if d < pol.MinBps {
		d = pol.MinBps
	}
	return d
}

// applyBudget actuates one arbiter grant: retune the session's pacer and
// forward the budget to the application's content-adaptation hook.
func (e *Entity) applyBudget(m *Managed, bps float64) {
	m.Session.SetPaceBps(bps)
	if m.OnBudget != nil {
		m.OnBudget(bps)
	}
}

// SetDemand updates a managed session's declared bandwidth appetite with
// the arbiter (a codec stepping its ladder, a bulk phase ending).
func (e *Entity) SetDemand(m *Managed, bps float64) {
	if e.arb == nil || m == nil {
		return
	}
	e.arb.SetDemand(m.Session.ConnID(), bps)
}

// Managed returns the policy wrapper for a connection, or nil.
func (e *Entity) ManagedSession(connID uint32) *Managed { return e.managed[connID] }

// --- connection negotiation and configuration phase (§4.1.1) ---

// OpenOptions names the optional parameters of OpenSessionWith.
type OpenOptions struct {
	// LocalPort fixes the local transport port; 0 selects an ephemeral one.
	LocalPort uint16
	// AdjustSpec, when set, mutates the derived SCS before synthesis —
	// dial-time knobs (establishment deadline, keepalive intervals) that the
	// three-stage transformation does not derive from the ACD.
	AdjustSpec func(*mechanism.Spec)
}

// OpenSessionWith runs the full three-stage transformation for an ACD and
// opens the session. For multicast descriptors it first distributes
// JoinInvites to every participant over the signaling channel.
func (e *Entity) OpenSessionWith(acd *ACD, opts OpenOptions) (*Managed, error) {
	localPort := opts.LocalPort
	if err := acd.Validate(); err != nil {
		return nil, err
	}
	tsc := Classify(acd) // Stage I
	path := e.worstPath(acd)
	spec := DeriveSCS(tsc, acd, path) // Stage II
	if opts.AdjustSpec != nil {
		opts.AdjustSpec(spec)
		spec.Normalize()
	}
	if acd.TMC.SampleRate == 0 {
		acd.TMC.SampleRate = 50 * time.Millisecond
	}
	var demand float64
	if e.arb != nil {
		// Arbitrated hosts pace every session: DeriveSCS leaves RateBps 0
		// for non-isochronous classes (window-limited, no pacer), but a
		// grant is only enforceable through a rate mechanism, so seed the
		// spec with the session's appetite and let grants retune it.
		demand = demandFor(acd, e.arb.Policy())
		if spec.RateBps == 0 {
			spec.RateBps = demand
		}
	}

	peer := acd.Participants[0]
	if acd.Multicast() && !peer.Host.IsMulticast() {
		return nil, fmt.Errorf("mantts: multicast ACD must name the group as participant 0")
	}

	s, _, err := e.stack.CreateActiveSession(spec, peer, localPort, acd.RemotePort) // Stage III
	if err != nil {
		return nil, err
	}
	if len(acd.TMC.Metrics) > 0 {
		// Selective instrumentation: only the metrics the application's
		// Transport Measurement Component requested reach UNITES (§4.3).
		s.SetMetricSink(&unites.FilteredSink{Next: s.MetricSink(), Allow: acd.TMC.Metrics})
	}
	m := &Managed{
		Session:  s,
		ACD:      acd,
		TSC:      tsc,
		Engine:   NewEngine(acd.TSA),
		peerHost: peer.Host,
	}
	e.managed[s.ConnID()] = m
	id := s.ConnID()
	s.SetNotifier(func(n mechanism.Notification) { e.notifyApp(id, n) })
	if e.arb != nil {
		// Seed the shared bottleneck estimate with a-priori path knowledge
		// and register the session under its Table-1 class. TSC values map
		// one-to-one onto arbiter classes.
		if path.Bandwidth > 0 {
			e.arb.SeedCapacity(path.Bandwidth)
		}
		e.arb.Register(s.ConnID(), arbiter.Class(tsc), float64(spec.Priority+1), demand,
			func(bps float64) { e.applyBudget(m, bps) })
	}

	if acd.Multicast() {
		m.group = peer
		m.members = make(map[netapi.HostID]bool)
		for _, p := range acd.Participants[1:] {
			e.inviteMember(m, p.Host)
		}
	}
	s.Open()
	e.startSampler(m)
	return m, nil
}

// worstPath merges descriptors across participants (multicast uses the
// most pessimistic characteristics).
func (e *Entity) worstPath(acd *ACD) PathState {
	var worst PathState
	first := true
	for _, p := range acd.Participants {
		if p.Host.IsMulticast() {
			continue
		}
		ps := e.netstate.Path(p.Host)
		if first {
			worst = ps
			first = false
			continue
		}
		worst.RTT = max(worst.RTT, ps.RTT)
		worst.LossRate = max(worst.LossRate, ps.LossRate)
		worst.BER = max(worst.BER, ps.BER)
		worst.MTU = min(worst.MTU, ps.MTU)
		worst.Congestion = max(worst.Congestion, ps.Congestion)
	}
	if first {
		worst = e.netstate.Path(acd.Participants[0].Host)
	}
	return worst
}

// --- data transfer and reconfiguration phase (§4.1.2) ---

// Reconfigure applies a coordinated SCS change to a live session: the new
// Spec travels to the peer over the signaling channel, then applies locally.
// The local application failure (failed synthesis, refused segue) is
// returned; the peer applies or rejects its copy independently. A peer that
// never confirms the change may run other mechanisms than this end, which is
// a broken session: it is aborted, and the application hears NoteClosed.
func (e *Entity) Reconfigure(m *Managed, mutate func(s *mechanism.Spec)) error {
	s := m.Session
	ns := *s.Spec()
	mutate(&ns)
	ns.Normalize()
	sig := signal{Type: sigReconfig, ConnID: s.ConnID(), Spec: mechanism.EncodeSpec(&ns)}
	done := func(ok bool) {
		if !ok {
			s.Abort("reconfiguration never confirmed by the peer")
		}
	}
	if m.members != nil {
		for h := range m.members {
			e.sendSignal(e.sapOf(h), sig, done)
		}
	} else {
		e.sendSignal(s.PeerAddr(), sig, done)
	}
	return s.ApplySpec(&ns)
}

// --- multicast membership ---

// inviteMember signals a host to join the session's group.
func (e *Entity) inviteMember(m *Managed, host netapi.HostID) {
	e.sendSignal(e.sapOf(host), signal{
		Type: sigJoinInvite, ConnID: m.Session.ConnID(), Spec: mechanism.EncodeSpec(m.Session.Spec()),
		Group: uint32(m.group.Host), Port: m.Session.LocalPort(),
	}, nil)
}

// AddParticipant invites a new member into a live multicast session
// (explicit reconfiguration: "a tele-conferencing application may switch
// between unicast and multicast as participants join and leave").
func (e *Entity) AddParticipant(m *Managed, host netapi.HostID) error {
	if m.members == nil {
		return ErrNotMulticast
	}
	e.inviteMember(m, host)
	return nil
}

// RemoveParticipant signals a member to leave.
func (e *Entity) RemoveParticipant(m *Managed, host netapi.HostID) error {
	if m.members == nil {
		return ErrNotMulticast
	}
	delete(m.members, host)
	e.sendSignal(e.sapOf(host), signal{Type: sigLeave, ConnID: m.Session.ConnID()}, nil)
	return nil
}

// --- signaling channel ---

// sapOf is a peer host's signaling address: its stack's SAP.
func (e *Entity) sapOf(h netapi.HostID) netapi.Addr {
	return netapi.Addr{Host: h, Port: e.stack.LocalAddr().Port}
}

// sendSignal sends a signal on the stack's reliable channel: it reaches the
// peer's entity in order and once, or done(false) reports the peer
// unreachable.
func (e *Entity) sendSignal(to netapi.Addr, sig signal, done func(ok bool)) {
	e.tx = sig
	f := e.tx.fields()
	e.stack.SendDoc(wire.TSignal, f[:], to, done)
}

// onSignal is the stack's out-of-band upcall.
func (e *Entity) onSignal(p *wire.PDU, from netapi.Addr) {
	defer p.ReleasePayload()
	if p.Type == wire.TProbe {
		e.onProbe(p, from)
		return
	}
	e.rx = signal{}
	if f := e.rx.fields(); wire.Decode(p.PayloadBytes(), f[:]) != nil {
		return // truncated or malformed: none of it is acted on
	}
	sig := e.rx // acting on it may re-enter onSignal and reuse e.rx
	if p.Seq == 0 && sig.Type != sigQualReport {
		return // only a quality report may arrive off the reliable channel
	}
	switch sig.Type {
	case sigReconfig:
		if s := e.stack.Session(sig.ConnID); s != nil {
			if sp, err := mechanism.DecodeSpec(sig.Spec); err == nil {
				if err := s.ApplySpec(sp); err == nil {
					e.notifyApp(sig.ConnID, mechanism.Notification{Kind: mechanism.NotePeerReconfig, Detail: sp.String()})
				}
			}
		}
	case sigJoinInvite:
		e.onJoinInvite(&sig, from)
	case sigJoinAck:
		if m := e.managed[sig.ConnID]; m != nil && m.members != nil {
			m.members[from.Host] = true
			e.notifyApp(sig.ConnID, mechanism.Notification{Kind: mechanism.NotePeerReconfig, Detail: fmt.Sprintf("member %v joined", from.Host)})
		}
	case sigLeave:
		if s := e.stack.Session(sig.ConnID); s != nil {
			s.Abort("left the group")
		}
	case sigQualReport:
		// A receiver's delivered-quality feedback: fold into the network
		// state descriptor so loss-based TSA conditions see multicast
		// reality despite suppressed acks.
		e.netstate.ObserveLoss(from.Host, float64(sig.Loss)/1e9)
	}
}

// StartQualityReports arms the periodic receiver report for a passive
// session whose recovery generates no ack stream (FEC or none): without it
// the sender's MANTTS entity is blind to delivered loss. Reports are
// fire-and-forget (off the reliable channel): the next period repeats them
// anyway. The ticker ends with the session (sessionEnded).
func (e *Entity) StartQualityReports(s *session.Session, sender netapi.Addr) {
	var lastRecv, lastGaps uint64
	e.reports[s.ConnID()] = e.stack.Timers().SchedulePeriodic(qualReportPeriod, qualReportPeriod, func() {
		st := s.State()
		dRecv := s.RecvPDUs - lastRecv
		dGaps := st.GapsAbandoned - lastGaps
		lastRecv, lastGaps = s.RecvPDUs, st.GapsAbandoned
		if dRecv+dGaps == 0 {
			return
		}
		frac := float64(dGaps) / float64(dRecv+dGaps)
		e.tx = signal{Type: sigQualReport, ConnID: s.ConnID(), Loss: uint64(frac * 1e9)}
		f := e.tx.fields()
		e.stack.TransmitDoc(wire.TSignal, f[:], sender)
	})
}

// onJoinInvite creates (idempotently) the receiving side of a multicast
// session and acks.
func (e *Entity) onJoinInvite(sig *signal, from netapi.Addr) {
	if e.stack.Session(sig.ConnID) == nil {
		sp, err := mechanism.DecodeSpec(sig.Spec)
		if err != nil {
			return
		}
		s, err := e.stack.CreatePassiveSession(sig.ConnID, sp, from, sig.Port, sig.Port)
		if err != nil {
			return
		}
		s.Accept()
		e.StartQualityReports(s, from)
		if e.OnMulticastAccept != nil {
			e.OnMulticastAccept(s, netapi.HostID(sig.Group))
		}
	}
	e.sendSignal(from, signal{Type: sigJoinAck, ConnID: sig.ConnID}, nil)
}

// --- probing (MANTTS-NMI) ---

// StartProbingCtx begins periodic RTT probes toward a host, replacing any
// existing campaign for it. Probing ends when ctx is canceled (checked at
// the next tick) or when the returned stop func runs, whichever is first;
// both are safe to invoke multiple times.
func (e *Entity) StartProbingCtx(ctx context.Context, host netapi.HostID, interval time.Duration) (stop func()) {
	e.StopProbing(host)
	to := netapi.Addr{Host: host, Port: e.stack.LocalAddr().Port}
	// stop cancels exactly this campaign's timer, and clears the host slot
	// only while this campaign still owns it — never a successor's.
	var ev *event.Event
	stop = func() {
		ev.Cancel()
		if e.probeTimers[host] == ev {
			delete(e.probeTimers, host)
		}
	}
	tick := func() {
		if ctx.Err() != nil {
			stop()
			return
		}
		now := e.stack.Clock().Now()
		e.netstate.NoteProbeSent(host, now)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(now))
		e.stack.Emit(wire.Header{Type: wire.TProbe}, buf[:], to)
	}
	ev = e.stack.Timers().SchedulePeriodic(0, interval, tick)
	e.probeTimers[host] = ev
	return stop
}

// StopProbing cancels probing toward a host.
func (e *Entity) StopProbing(host netapi.HostID) {
	if t, ok := e.probeTimers[host]; ok {
		t.Cancel()
		delete(e.probeTimers, host)
	}
}

// Shutdown cancels every probing campaign still running (node shutdown: a
// campaign bounded only by context.Background would otherwise outlive the
// node).
func (e *Entity) Shutdown() {
	for host := range e.probeTimers {
		e.StopProbing(host)
	}
}

func (e *Entity) onProbe(p *wire.PDU, from netapi.Addr) {
	if p.Flags&wire.FlagEcho == 0 {
		// Reflect the probe (payload carries the sender's timestamp).
		e.stack.Emit(wire.Header{Type: wire.TProbe, Flags: wire.FlagEcho}, p.PayloadBytes(), from)
		return
	}
	if b := p.PayloadBytes(); len(b) >= 8 {
		sent := time.Duration(binary.BigEndian.Uint64(b))
		e.netstate.ObserveRTT(from.Host, e.stack.Clock().Now()-sent)
	}
}

// --- policy loop ---

// startSampler arms the periodic TSA evaluation for a managed session.
func (e *Entity) startSampler(m *Managed) {
	period := m.ACD.TMC.SampleRate
	m.lastSampleAt = e.stack.Clock().Now()
	m.sampler = e.stack.Timers().SchedulePeriodic(period, period, func() { e.sample(m) })
}

// sample gathers the current metric vector and runs the TSA engine.
func (e *Entity) sample(m *Managed) {
	s := m.Session
	now := e.stack.Clock().Now()
	dt := (now - m.lastSampleAt).Seconds()
	if dt <= 0 {
		return
	}
	st := s.State()

	sent := s.SentPDUs
	retx := st.Retransmissions
	delivered := s.DeliveredBytes
	dSent := sent - m.lastSent
	dRetx := retx - m.lastRetx
	dDeliv := delivered - m.lastDelivered
	m.lastSent, m.lastRetx, m.lastDelivered = sent, retx, delivered
	m.lastSampleAt = now

	var retxRate float64
	if dSent > 0 {
		retxRate = float64(dRetx) / float64(dSent)
	}
	path := e.netstate.Path(m.peerHost)
	if m.members != nil {
		// Multicast: no ack stream to infer loss from; receiver quality
		// reports maintain per-member paths — take the worst member.
		for h := range m.members {
			if ps := e.netstate.Path(h); ps.LossRate > path.LossRate {
				path.LossRate = ps.LossRate
			}
		}
	} else {
		e.netstate.ObserveLoss(m.peerHost, retxRate)
		path = e.netstate.Path(m.peerHost)
	}

	rtt := st.SRTT
	if rtt == 0 {
		rtt = path.RTT
	}
	values := map[MetricID]float64{
		MetricRTT:            rtt.Seconds(),
		MetricJitter:         st.RTTVar.Seconds(),
		MetricLossRate:       path.LossRate,
		MetricCongestion:     path.Congestion,
		MetricRetransmitRate: retxRate,
		MetricThroughputBps:  float64(dDeliv) * 8 / dt,
		MetricRcvBufFill:     float64(st.RcvBuf.Len()) / float64(st.RcvBufCap),
	}
	if e.arb != nil {
		// Feed the host arbiter this session's congestion view and pick up
		// its squeeze as a TSA condition input. Multicast sessions have no
		// per-window retransmit signal; their loss rides the quality-report
		// EWMA instead.
		loss := retxRate
		if m.members != nil {
			loss = path.LossRate
		}
		id := s.ConnID()
		// The raw last sample, not the SRTT EWMA: the smoothed value stays
		// inflated for seconds after a queue episode drains and would latch
		// the arbiter's delay detector into repeated decreases.
		rttSig := st.LastRTT
		if rttSig == 0 {
			rttSig = st.SRTT
		}
		e.arb.Observe(now, id, arbiter.Signal{
			LossRate:      loss,
			RTT:           rttSig,
			ThroughputBps: values[MetricThroughputBps],
		})
		values[MetricArbiterSqueeze] = e.arb.SqueezeOf(id)
		e.arb.Reallocate(now)
	}
	for _, act := range m.Engine.Evaluate(now, values) {
		e.apply(m, act)
	}
}

// apply executes one TSA action.
func (e *Entity) apply(m *Managed, act Action) {
	e.notifyApp(m.Session.ConnID(), mechanism.Notification{
		Kind:   mechanism.NotePolicyAction,
		Detail: act.String(),
	})
	m.Session.MetricSink().Count("policy.action."+act.String(), 1)
	switch act.Kind {
	case ActSetRecovery:
		if m.Session.Spec().Recovery == act.Recovery {
			return
		}
		e.Reconfigure(m, func(s *mechanism.Spec) { s.Recovery = act.Recovery })
	case ActScaleRate:
		e.Reconfigure(m, func(s *mechanism.Spec) {
			s.RateBps *= act.Factor
			// Clamp to the ACD's nominal envelope: scaling rules must
			// not run the rate away in either direction.
			nominal := m.ACD.Quant.PeakThroughputBps
			if nominal == 0 {
				nominal = m.ACD.Quant.AvgThroughputBps
			}
			if nominal > 0 {
				if ceil := nominal * 1.1; s.RateBps > ceil {
					s.RateBps = ceil
				}
				if floor := nominal * 0.05; s.RateBps < floor {
					s.RateBps = floor
				}
			}
		})
	case ActSetWindowSize:
		e.Reconfigure(m, func(s *mechanism.Spec) {
			s.WindowSize = act.Size
			// Receiver buffering must keep pace with the window or the
			// advertisement caps the sender anyway.
			if s.RcvBufPDUs < 4*act.Size {
				s.RcvBufPDUs = 4 * act.Size
			}
		})
	case ActSetWindowKind:
		e.Reconfigure(m, func(s *mechanism.Spec) { s.Window = act.Window })
	case ActNotifyApp:
		// notifyApp above already delivered the note.
	}
}

// --- connection termination phase (§4.1.3) ---

// sessionEnded is the entity's share of a session's terminal transition:
// release resources and drop policy state; the session's bandwidth budget
// returns to the arbiter's pool. The Managed itself may outlive this in the
// application's Conn, so it lets go of everything but what describes it.
func (e *Entity) sessionEnded(s *session.Session) {
	id := s.ConnID()
	if ev := e.reports[id]; ev != nil {
		ev.Cancel()
		delete(e.reports, id)
	}
	m := e.managed[id]
	if m == nil {
		return
	}
	if m.sampler != nil {
		m.sampler.Cancel()
	}
	if e.arb != nil {
		e.arb.Unregister(id)
	}
	delete(e.managed, id)
	m.ACD, m.Engine, m.OnBudget, m.members, m.sampler = nil, nil, nil, nil, nil
}

// noteSub is one notification subscriber.
type noteSub struct {
	id int
	fn func(connID uint32, n mechanism.Notification)
}

// SubscribeNotes registers a notification listener alongside any others;
// listeners fire in registration order.
// The returned cancel is idempotent and safe from any goroutine.
func (e *Entity) SubscribeNotes(fn func(connID uint32, n mechanism.Notification)) (cancel func()) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	id := e.nextSubID
	e.nextSubID++
	var list []noteSub
	if old := e.subs.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, noteSub{id: id, fn: fn})
	e.subs.Store(&list)
	return func() {
		e.subMu.Lock()
		defer e.subMu.Unlock()
		cur := e.subs.Load()
		if cur == nil {
			return
		}
		out := make([]noteSub, 0, len(*cur))
		for _, s := range *cur {
			if s.id != id {
				out = append(out, s)
			}
		}
		e.subs.Store(&out)
	}
}

func (e *Entity) notifyApp(connID uint32, n mechanism.Notification) {
	if subs := e.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(connID, n)
		}
	}
}
