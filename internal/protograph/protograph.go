// Package protograph implements the TKO_Protocol abstraction (ADAPTIVE
// §4.2.1): the protocol-graph node that owns a network endpoint,
// demultiplexes arriving PDUs to TKO_Session objects, spawns passive
// sessions through listeners, and supports run-time protocol-graph editing
// (inserting and removing layers on the packet path).
package protograph

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/session"
	"adaptive/internal/tko"
	"adaptive/internal/trace"
	"adaptive/internal/wire"
)

// Layer is a protocol-graph element on the packet path. Layers see raw
// packets in both directions and may transform or drop them (compression,
// tracing, fault injection). The protocol graph is editable at run time —
// the paper's "management operations for manipulating protocol graphs".
type Layer interface {
	Name() string
	// Outbound processes a departing packet; ok=false drops it.
	Outbound(pkt []byte, dst netapi.Addr) (out []byte, ok bool)
	// Inbound processes an arriving packet; ok=false drops it.
	Inbound(pkt []byte, from netapi.Addr) (out []byte, ok bool)
}

// Listener accepts passive connections on a transport port.
type Listener struct {
	// Adjust reconciles a peer's proposed Spec with local resources and
	// policy, returning the Spec the new session will run (nil accepts
	// the proposal unchanged). This is the local half of QoS negotiation.
	Adjust func(proposed *mechanism.Spec, from netapi.Addr) *mechanism.Spec
	// OnAccept is invoked with each newly created passive session before
	// any data is delivered, so the application can install receivers.
	OnAccept func(s *session.Session)
}

// Stats counts stack-level demux activity.
type Stats struct {
	DecodeErrors    uint64 // checksum failures and malformed packets
	UnmatchedPDUs   uint64 // no session and no listener
	LatePDUs        uint64 // for a connection that ended less than tombLinger ago
	FencedPDUs      uint64 // rejected: sent by a non-owner after a migration
	StaleOwnerUpd   uint64 // ownership updates rejected by epoch ordering
	SessionsActive  int
	SessionsTotal   uint64
	SessionsRetired uint64 // sessions that went through the terminal transition
	Tombstones      int    // ended connections still remembered (<= tombCap)
	DocPeers        int    // out-of-band channel entries: peer SAPs sent to or heard from
}

// fence records the epoch-ordered egress owner of a migrated connection.
// Once installed, data PDUs for the connection are accepted only from the
// owner host: a stale-epoch sender (the pre-migration owner, or any replay
// of its frames) is rejected at demux and counted, which is what makes the
// routing flip atomic from the receiver's point of view — there is no
// instant at which two hosts' egress is accepted.
type fence struct {
	owner netapi.Addr
	epoch uint64
}

// MetricFactory supplies a metric sink per session (UNITES instrumentation
// point). Nil sinks are replaced by no-ops.
type MetricFactory func(connID uint32) mechanism.MetricSink

// Stack is one host's transport protocol graph.
type Stack struct {
	ep      netapi.Endpoint
	clock   netapi.Clock
	cache   *wire.Cache // the provider's loop tier; nil = the shared tier
	timers  *event.Manager
	rng     *rand.Rand
	synth   *tko.Synthesizer
	metrics MetricFactory
	tracer  *trace.Recorder

	sessions  map[uint32]*session.Session
	listeners map[uint16]*Listener
	layers    []Layer
	fences    map[uint32]fence
	tombs     tombstones
	ended     []func(*session.Session) // OnTerminal subscribers

	// SignalHandler receives out-of-band Signal and Probe PDUs (the
	// MANTTS entity installs itself here).
	SignalHandler func(p *wire.PDU, from netapi.Addr)
	// ControlHandler receives control-plane PDUs (wire.TControl): the
	// migration agent installs itself here. The handler takes ownership.
	ControlHandler func(p *wire.PDU, from netapi.Addr)

	// The out-of-band channel (channel.go): this stack's incarnation, and
	// each peer SAP's sending and receiving half.
	inc       uint32
	senders   map[netapi.Addr]*docSender
	receivers map[netapi.Addr]*docReceiver

	doc []byte // TransmitDoc's encoding, reused: fire-and-forget sends allocate nothing

	stats Stats
	// The session-lifecycle counters are atomics because the observability
	// plane reads them from its own goroutine (MetricCounters): live mirrors
	// len(sessions); retired and late are Stats' SessionsRetired and LatePDUs.
	live          atomic.Int64
	retired, late atomic.Uint64
}

// Config assembles a Stack.
type Config struct {
	Provider netapi.Provider
	Host     netapi.HostID
	SAPPort  uint16 // the well-known transport service access point port
	Seed     int64
	Synth    *tko.Synthesizer
	Metrics  MetricFactory
	// Tracer, when non-nil, is handed to every session so the flight
	// recorder captures the send/receive pipeline and segue events.
	Tracer *trace.Recorder
}

// DefaultSAPPort is the conventional transport SAP.
const DefaultSAPPort = 7700

// NewStack binds a stack on the host.
func NewStack(cfg Config) (*Stack, error) {
	if cfg.SAPPort == 0 {
		cfg.SAPPort = DefaultSAPPort
	}
	if cfg.Synth == nil {
		cfg.Synth = tko.NewSynthesizer(tko.DefaultRegistry())
	}
	ep, err := cfg.Provider.Open(cfg.Host, cfg.SAPPort)
	if err != nil {
		return nil, err
	}
	st := &Stack{
		ep:        ep,
		clock:     cfg.Provider.Clock(),
		timers:    event.NewManager(cfg.Provider.Clock()),
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Host)<<20)),
		synth:     cfg.Synth,
		metrics:   cfg.Metrics,
		tracer:    cfg.Tracer,
		sessions:  make(map[uint32]*session.Session),
		listeners: make(map[uint16]*Listener),
		fences:    make(map[uint32]fence),
		tombs:     tombstones{until: make(map[uint32]time.Duration)},
		// A restarted stack's incarnation is newer than the one it replaces,
		// so a peer's receiver starts over for it (channel.go).
		inc:       uint32(cfg.Provider.Clock().Now() / time.Millisecond),
		senders:   make(map[netapi.Addr]*docSender),
		receivers: make(map[netapi.Addr]*docReceiver),
	}
	if lc, ok := cfg.Provider.(interface{ LoopCache() *wire.Cache }); ok {
		// A provider that runs the stack on one event loop (netsim's kernel,
		// udpnet's loop goroutine) lends that loop's free lists: every
		// pooled get and put the stack and its sessions make on the loop
		// then takes no lock. Any other provider — a wrapper that hides
		// them — leaves the stack on the shared tier.
		st.cache = lc.LoopCache()
	}
	ep.SetReceiver(st.onPacket)
	if be, ok := ep.(netapi.BatchEndpoint); ok {
		// Batching providers (udpnet's reader, a frame train's frames)
		// hand the stack a whole arrival batch in one upcall; non-batching
		// providers keep using the per-packet receiver installed above.
		be.SetBatchReceiver(st.onBatch)
	}
	return st, nil
}

// Endpoint exposes the bound endpoint (experiments set CPU costs on it).
func (st *Stack) Endpoint() netapi.Endpoint { return st.ep }

// Clock returns the stack's clock.
func (st *Stack) Clock() netapi.Clock { return st.clock }

// Timers returns the stack's timer manager.
func (st *Stack) Timers() *event.Manager { return st.timers }

// Synth returns the stack's synthesizer.
func (st *Stack) Synth() *tko.Synthesizer { return st.synth }

// LocalAddr returns the stack's SAP address.
func (st *Stack) LocalAddr() netapi.Addr { return st.ep.LocalAddr() }

// Stats returns a copy of the demux counters.
func (st *Stack) Stats() Stats {
	s := st.stats
	s.SessionsActive = len(st.sessions)
	s.SessionsRetired, s.LatePDUs = st.retired.Load(), st.late.Load()
	s.Tombstones = st.tombs.n
	s.DocPeers = len(st.senders) + len(st.receivers)
	return s
}

// MetricCounters exposes the session-lifecycle counters in the observability
// plane's pull format (sessions.live, sessions.retired, protograph.late_pdus).
// The closures read atomics: safe from any goroutine.
func (st *Stack) MetricCounters() map[string]func() uint64 {
	return map[string]func() uint64{
		"sessions.live":        func() uint64 { return uint64(st.live.Load()) },
		"sessions.retired":     st.retired.Load,
		"protograph.late_pdus": st.late.Load,
	}
}

// --- protocol graph editing ---

// InsertLayer pushes a layer onto the packet path (outermost first).
func (st *Stack) InsertLayer(l Layer) { st.layers = append(st.layers, l) }

// RemoveLayer deletes the first layer with the given name; it reports
// whether one was found.
func (st *Stack) RemoveLayer(name string) bool {
	for i, l := range st.layers {
		if l.Name() == name {
			st.layers = append(st.layers[:i], st.layers[i+1:]...)
			return true
		}
	}
	return false
}

// Layers lists the current layer names in outbound order.
func (st *Stack) Layers() []string {
	out := make([]string, len(st.layers))
	for i, l := range st.layers {
		out[i] = l.Name()
	}
	return out
}

// --- session.Outbound ---

// Transmit sends an encoded packet through the layer chain to the network.
func (st *Stack) Transmit(pkt []byte, dst netapi.Addr) error {
	p := pkt
	for _, l := range st.layers {
		var ok bool
		p, ok = l.Outbound(p, dst)
		if !ok {
			return nil // layer swallowed the packet
		}
	}
	return st.ep.Send(p, dst)
}

// --- listeners and session management ---

// Listen installs a listener on a transport port.
func (st *Stack) Listen(port uint16, l *Listener) error {
	if _, busy := st.listeners[port]; busy {
		return fmt.Errorf("protograph: port %d already listening", port)
	}
	st.listeners[port] = l
	return nil
}

// Unlisten removes a listener.
func (st *Stack) Unlisten(port uint16) { delete(st.listeners, port) }

// Session returns the session with the given connection ID, or nil.
func (st *Stack) Session(connID uint32) *session.Session { return st.sessions[connID] }

// Sessions returns all live sessions (iteration order unspecified).
func (st *Stack) Sessions() []*session.Session {
	out := make([]*session.Session, 0, len(st.sessions))
	for _, s := range st.sessions {
		out = append(out, s)
	}
	return out
}

// OnTerminal subscribes fn to every session's terminal transition. It runs
// after the session has released what it held and the stack has dropped the
// demux entry and fence; layers that keep per-connection state (policy
// samplers, migrations, metric recorders) let go of theirs here.
func (st *Stack) OnTerminal(fn func(s *session.Session)) { st.ended = append(st.ended, fn) }

// sessionEnded is every session's OnTerminal hook: the one place an entry
// leaves the demux table. The ConnID is remembered for tombLinger so the
// connection's stragglers are not mistaken for a new peer.
func (st *Stack) sessionEnded(s *session.Session) {
	id := s.ConnID()
	delete(st.sessions, id)
	delete(st.fences, id)
	st.tombs.add(id, st.clock.Now())
	st.retired.Add(1)
	st.live.Add(-1)
	for _, fn := range st.ended {
		fn(s)
	}
}

var errNoMechanism = errors.New("protograph: synthesis failed")

// CreateActiveSession synthesizes and registers an actively-opening session.
// MANTTS calls this in Stage III after producing the SCS. The caller must
// invoke Open on the returned session (after installing callbacks).
func (st *Stack) CreateActiveSession(spec *mechanism.Spec, peerNet netapi.Addr, localPort, peerPort uint16) (*session.Session, *tko.Result, error) {
	res, err := st.synth.Synthesize(spec)
	if err != nil {
		return nil, nil, err
	}
	connID := st.allocConnID()
	s := st.buildSession(connID, spec, res, peerNet, localPort, peerPort)
	return s, &res, nil
}

// CreatePassiveSession synthesizes and registers a listener-spawned session.
func (st *Stack) CreatePassiveSession(connID uint32, spec *mechanism.Spec, peerNet netapi.Addr, localPort, peerPort uint16) (*session.Session, error) {
	res, err := st.synth.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	s := st.buildSession(connID, spec, res, peerNet, localPort, peerPort)
	return s, nil
}

func (st *Stack) buildSession(connID uint32, spec *mechanism.Spec, res tko.Result, peerNet netapi.Addr, localPort, peerPort uint16) *session.Session {
	var sink mechanism.MetricSink
	if st.metrics != nil {
		sink = st.metrics(connID)
	}
	s := session.New(session.Params{
		ConnID:    connID,
		LocalPort: localPort,
		PeerPort:  peerPort,
		PeerNet:   peerNet,
		Spec:      spec,
		Slots:     res.Slots,
		Factory:   st.synth.Factory(),
		Clock:     st.clock,
		Timers:    st.timers,
		Rand:      st.rng,
		Metrics:   sink,
		Tracer:    st.tracer,
		Out:       st,
		Cache:     st.cache,

		OnTerminal: st.sessionEnded,
	})
	if res.Static {
		s.SetReconfigurable(false)
	}
	st.sessions[connID] = s
	st.tombs.drop(connID) // an explicit re-creation (re-invite, migration back) supersedes it
	st.stats.SessionsTotal++
	st.live.Add(1)
	return s
}

// SetOwner installs (or advances) the epoch fence for a connection: data
// PDUs are henceforth accepted only from owner's host. Updates are ordered
// by epoch — one that does not carry a newer epoch than the fence's is
// rejected and counted, so routing can only move forward. It reports whether
// the update was applied.
func (st *Stack) SetOwner(connID uint32, owner netapi.Addr, epoch uint64) bool {
	if f, ok := st.fences[connID]; ok && epoch <= f.epoch {
		st.stats.StaleOwnerUpd++
		return false
	}
	st.fences[connID] = fence{owner: owner, epoch: epoch}
	return true
}

// AdoptSession synthesizes a session from a migration handoff and registers
// it in the demux table already established, with its transfer state,
// buffers, and meters imported. Egress stays frozen until ResumeEgress. The
// caller installs callbacks before resuming.
func (st *Stack) AdoptSession(h *session.Handoff) (*session.Session, error) {
	if st.sessions[h.ConnID] != nil {
		return nil, fmt.Errorf("protograph: conn %d already present", h.ConnID)
	}
	res, err := st.synth.Synthesize(h.Spec)
	if err != nil {
		return nil, err
	}
	s := st.buildSession(h.ConnID, h.Spec, res, h.PeerNet, h.LocalPort, h.PeerPort)
	s.ImportHandoff(h)
	return s, nil
}

func (st *Stack) allocConnID() uint32 {
	for {
		id := st.rng.Uint32()
		if id != 0 && st.sessions[id] == nil && !st.tombs.has(id, st.clock.Now()) {
			return id
		}
	}
}

// --- demultiplexing ---

// onPacket is the endpoint receive upcall: decode, walk inbound layers,
// demux.
func (st *Stack) onPacket(pkt []byte, from netapi.Addr) {
	p := pkt
	for i := len(st.layers) - 1; i >= 0; i-- {
		var ok bool
		p, ok = st.layers[i].Inbound(p, from)
		if !ok {
			return
		}
	}
	pdu := st.cache.GetPDU()
	if err := st.cache.DecodeInto(p, pdu); err != nil {
		st.stats.DecodeErrors++
		st.cache.PutPDU(pdu)
		return
	}
	st.dispatch(pdu, from)
}

// onBatch is the batched receive upcall: the per-packet path applied to each
// element, amortizing one provider dispatch across the whole arrival batch.
func (st *Stack) onBatch(batch []netapi.Packet) {
	for i := range batch {
		st.onPacket(batch[i].Data, batch[i].From)
	}
}

func (st *Stack) dispatch(p *wire.PDU, from netapi.Addr) {
	switch p.Type {
	case wire.TSignal, wire.TControl:
		st.onDoc(p, from)
		return
	case wire.TProbe:
		// The handler takes ownership and may retain the PDU; losing it to
		// the GC instead of the pool is always safe.
		st.handOff(p, from)
		return
	}
	if s := st.sessions[p.ConnID]; s != nil {
		if f, fenced := st.fences[p.ConnID]; fenced && from.Host != f.owner.Host {
			// Stale-epoch sender: a host that no longer owns this
			// connection's egress. Reject before the session sees it.
			st.stats.FencedPDUs++
			st.cache.PutPDU(p)
			return
		}
		s.HandlePDU(p)
		return
	}
	if st.tombs.has(p.ConnID, st.clock.Now()) {
		st.latePDU(p, from)
		return
	}
	// No session: a listener may accept it.
	l := st.listeners[p.DstPort]
	if l == nil {
		st.stats.UnmatchedPDUs++
		st.cache.PutPDU(p)
		return
	}
	spec, ok := st.proposalFrom(p)
	if !ok {
		st.stats.UnmatchedPDUs++
		st.cache.PutPDU(p)
		return
	}
	if l.Adjust != nil {
		if adj := l.Adjust(spec, from); adj != nil {
			spec = adj
			spec.Normalize()
		}
	}
	s, err := st.CreatePassiveSession(p.ConnID, spec, from, p.DstPort, p.SrcPort)
	if err != nil {
		st.stats.UnmatchedPDUs++
		st.cache.PutPDU(p)
		return
	}
	if l.OnAccept != nil {
		l.OnAccept(s)
	}
	s.Accept()
	s.HandlePDU(p)
}

// proposalFrom extracts the peer's proposed Spec from a connection-opening
// PDU: the payload of a CONNREQ, or the piggybacked prefix of an implicit
// first data PDU.
func (st *Stack) proposalFrom(p *wire.PDU) (*mechanism.Spec, bool) {
	switch p.Type {
	case wire.TConnReq:
		spec, err := mechanism.DecodeSpec(p.PayloadBytes())
		if err != nil {
			return nil, false
		}
		return spec, true
	case wire.TData:
		if p.Flags&wire.FlagImplicitCfg == 0 || p.Payload == nil || int(p.Aux) > p.Payload.Len() {
			return nil, false
		}
		spec, err := mechanism.DecodeSpec(p.PayloadBytes()[:p.Aux])
		if err != nil {
			return nil, false
		}
		return spec, true
	}
	return nil, false
}
