// Package rig is the one world builder: every experiment, the scenario
// runtime and adaptivesim stand on a World — hosts on a network provider, the
// links between them, and the ADAPTIVE nodes brought up on those hosts.
//
// A World is either simulated (a deterministic kernel and a netsim network;
// the caller's goroutine steps the virtual clock) or live (UDP loopback
// sockets; the provider's event loop runs on its own goroutine and the clock
// is the wall). A script that touches protocol state only inside Do and inside
// Until's cond runs unchanged on both, without locks, because both execute
// where the receive upcalls execute.
//
// The rig fixes no experiment policy: kernel seed, node seeds and node names
// are the caller's, which is what keeps every run byte-reproducible across
// refactors of the rig itself.
package rig

import (
	"errors"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/trace"
	"adaptive/internal/udpnet"
	"adaptive/internal/unites"
	"adaptive/internal/workload"
)

// eventLimit is the runaway-simulation cap installed on every kernel.
const eventLimit = 500_000_000

// World is one experiment world.
type World struct {
	Name  string             // "sim" or "live": scripts tag node names and errors with it
	Prov  netapi.Provider    // what nodes attach to (the impairment shim once Impair wraps it)
	Hosts []netapi.HostID    // host i's identity on the provider
	Nodes []*adaptive.Node   // Nodes[i] runs on Hosts[i]; nil until Node(i, ...)
	Repo  *unites.Repository // shared by every node; replace it before the first Node to share wider
	Imp   *impair.Provider   // nil without impairment

	K   *sim.Kernel     // sim only
	Net *netsim.Network // sim only

	links  map[[2]int]*netsim.Link
	tracer *trace.Recorder
	live   *udpnet.Provider
	start  time.Time // live only: origin of Now
}

// NewSim builds n simulator hosts on a fresh kernel. No host can reach another
// until AddLink or Mesh says how.
func NewSim(seed int64, n int) *World { return OnKernel(sim.NewKernel(seed), n) }

// OnKernel is NewSim on a kernel the caller owns (a shard of sim.RunSharded).
func OnKernel(k *sim.Kernel, n int) *World {
	k.SetEventLimit(eventLimit)
	net := netsim.New(k)
	w := newWorld("sim", net, n)
	w.K, w.Net, w.links = k, net, make(map[[2]int]*netsim.Link)
	for i := range w.Hosts {
		w.Hosts[i] = net.AddHost().ID()
	}
	return w
}

// NewLive builds n in-process hosts on one UDP loopback provider with the
// given flush window (zero: per-packet sends).
func NewLive(n int, flush time.Duration) *World {
	p := udpnet.New(udpnet.WithQueueLen(1<<14), udpnet.WithSocketBuffers(4<<20, 4<<20),
		udpnet.WithFlushWindow(flush))
	w := newWorld("live", p, n)
	w.live, w.start = p, time.Now()
	for i := range w.Hosts {
		w.Hosts[i] = netapi.HostID(i + 1)
	}
	return w
}

func newWorld(name string, prov netapi.Provider, n int) *World {
	return &World{Name: name, Prov: prov, Repo: unites.NewRepository(),
		Hosts: make([]netapi.HostID, n), Nodes: make([]*adaptive.Node, n)}
}

// AddLink creates the simplex link host i sends to host j over and routes i's
// traffic to j across it.
func (w *World) AddLink(i, j int, cfg netsim.LinkConfig) *netsim.Link {
	l := w.Net.NewLink(cfg)
	w.Net.SetRoute(w.Hosts[i], w.Hosts[j], l)
	w.links[[2]int{i, j}] = l
	return l
}

// Mesh links every ordered host pair with its own link of one configuration.
func (w *World) Mesh(cfg netsim.LinkConfig) {
	for i := range w.Hosts {
		for j := range w.Hosts {
			if i != j {
				w.AddLink(i, j, cfg)
			}
		}
	}
}

// Link returns the link AddLink or Mesh created from host i to host j, or nil.
func (w *World) Link(i, j int) *netsim.Link { return w.links[[2]int{i, j}] }

// Impair puts the seeded impairment shim between the nodes created from now
// on and the provider, when cfg impairs anything.
func (w *World) Impair(cfg impair.Config) {
	if cfg.Active() {
		w.Imp = impair.Wrap(w.Prov, cfg)
		w.Prov = w.Imp
	}
}

// Trace flight-records the world into rec: the kernel now, and every node
// created from now on.
func (w *World) Trace(rec *trace.Recorder) {
	w.tracer = rec
	w.K.SetTracer(rec)
}

// Node brings up ADAPTIVE on host i, reporting into the world's repository
// and tracer.
func (w *World) Node(i int, seed int64, name string, extra ...adaptive.Option) (*adaptive.Node, error) {
	opts := append([]adaptive.Option{
		adaptive.WithProvider(w.Prov), adaptive.WithHost(w.Hosts[i]),
		adaptive.WithSeed(seed), adaptive.WithName(name),
		adaptive.WithObservability(adaptive.Observe{Repository: w.Repo, Tracer: w.tracer}),
	}, extra...)
	n, err := adaptive.NewNode(opts...)
	w.Nodes[i] = n
	return n, err
}

// SeedPaths gives every node the static path knowledge of its outgoing links
// (bandwidth, RTT as twice the propagation delay, BER, MTU) — what a
// provisioned network's management plane would tell MANTTS.
func (w *World) SeedPaths() {
	for key, l := range w.links {
		cfg := l.Config()
		w.Nodes[key[0]].SeedPath(w.Hosts[key[1]], mantts.StaticPathInfo{
			Bandwidth: cfg.Bandwidth,
			RTT:       2 * cfg.PropDelay,
			BER:       cfg.BER,
			MTU:       cfg.MTU,
		})
	}
}

// Do runs fn where protocol code runs: inline on the simulator, on the
// provider's event loop (blocking until it returns) live.
func (w *World) Do(fn func()) {
	if w.K != nil {
		fn()
		return
	}
	w.live.Wait(fn)
}

// Until advances the world in increments of step until cond holds, giving up
// after limit on the world's clock; it reports whether cond held. On the
// simulator each increment runs the kernel for step of virtual time; live,
// cond is evaluated on the event loop and the caller sleeps step of wall time
// between evaluations.
func (w *World) Until(step, limit time.Duration, cond func() bool) bool {
	begin := w.Now()
	for {
		var ok bool
		w.Do(func() { ok = cond() })
		if ok {
			return true
		}
		if w.Now()-begin >= limit {
			return false
		}
		if w.K != nil {
			w.K.RunFor(step)
		} else {
			time.Sleep(step)
		}
	}
}

// Now is the time since the world started, on its own clock.
func (w *World) Now() time.Duration {
	if w.K != nil {
		return w.K.Now()
	}
	return time.Since(w.start)
}

// Close releases a live world's sockets and event loop.
func (w *World) Close() {
	if w.live != nil {
		w.live.Close()
	}
}

// Listen installs an accept callback on a node's port.
func (w *World) Listen(n *adaptive.Node, port uint16, accept func(*adaptive.Conn)) error {
	var err error
	w.Do(func() { err = n.Listen(port, nil, accept) })
	return err
}

// Echo listens on a node's port and sends every message back on the
// connection it arrived on. Send copies synchronously into a pooled message, so
// the delivered slice goes straight back without a copy.
func (w *World) Echo(n *adaptive.Node, port uint16) error {
	return w.Listen(n, port, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, _ bool) { c.Send(data) })
	})
}

// ErrEstablishStalled is Dial's error when the limit passes first.
var ErrEstablishStalled = errors.New("establishment stalled")

// Dial opens a connection and pumps the world until it is established
// (ErrEstablishStalled after limit).
func (w *World) Dial(from *adaptive.Node, acd *adaptive.ACD, opts *adaptive.DialOptions, limit time.Duration) (*adaptive.Conn, error) {
	var conn *adaptive.Conn
	var err error
	w.Do(func() { conn, err = from.Dial(acd, opts) })
	if err != nil {
		return nil, err
	}
	if !w.Until(time.Millisecond, limit, conn.Established) {
		return nil, ErrEstablishStalled
	}
	return conn, nil
}

// Sink is the receiving end of a bulk transfer. Read its fields where
// protocol code runs (inside Do or Until's cond on a live world).
type Sink struct {
	Bytes  int            // payload bytes delivered so far
	DoneAt time.Duration  // world clock when Bytes first reached the threshold; 0 until then
	Conn   *adaptive.Conn // the accepted connection; nil until the dial lands
}

// Sink listens on a node's port and consumes what arrives: it counts the
// bytes, stamps DoneAt when threshold of them have been delivered, feeds meter
// (optional) and releases every message.
func (w *World) Sink(n *adaptive.Node, port uint16, threshold int, meter *workload.Meter) (*Sink, error) {
	s := &Sink{}
	return s, w.Listen(n, port, func(c *adaptive.Conn) {
		s.Conn = c
		c.OnDelivery(func(d adaptive.Delivery) {
			s.Bytes += d.Msg.Len()
			if s.DoneAt == 0 && s.Bytes >= threshold {
				s.DoneAt = w.Now()
			}
			if meter != nil {
				meter.Observe(d)
			}
			d.Msg.Release()
		})
	})
}
