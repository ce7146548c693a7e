package experiment

import (
	"errors"
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/udpnet"
)

// env is the environment driver: it lets one scenario script run unchanged on
// the deterministic simulator (virtual clock, the script's goroutine steps
// the kernel) and over UDP loopback sockets (wall clock, the provider's event
// loop runs on its own goroutine). A script touches protocol state only
// inside do and inside until's cond, both of which execute where the receive
// upcalls execute, so scripts need no locks in either environment.
type env struct {
	name  string          // "sim" or "live": tags node names and errors
	prov  netapi.Provider // what nodes attach to (the impair shim when active)
	hosts []netapi.HostID
	imp   *impair.Provider // nil without impairment

	k     *sim.Kernel      // sim only
	live  *udpnet.Provider // live only
	start time.Time        // live only: origin of now()
}

// newSimEnv builds n simulator hosts fully meshed with per-direction links of
// the given configuration, optionally behind the seeded impairment shim.
func newSimEnv(seed int64, n int, link netsim.LinkConfig, imp impair.Config) *env {
	k := sim.NewKernel(seed)
	k.SetEventLimit(200_000_000)
	net := netsim.New(k)
	e := &env{name: "sim", prov: net, k: k}
	for i := 0; i < n; i++ {
		e.hosts = append(e.hosts, net.AddHost().ID())
	}
	for i := range e.hosts {
		for j := range e.hosts {
			if i != j {
				net.SetRoute(e.hosts[i], e.hosts[j], net.NewLink(link))
			}
		}
	}
	e.wrapImpair(imp)
	return e
}

// newLiveEnv builds n in-process hosts on one UDP loopback provider with the
// given batched-datapath settings (zero values: provider defaults, per-packet
// sends), optionally behind the same impairment shim.
func newLiveEnv(n int, imp impair.Config, batch int, flush time.Duration) *env {
	p := udpnet.New(udpnet.WithQueueLen(1<<14), udpnet.WithSocketBuffers(4<<20, 4<<20),
		udpnet.WithBatch(batch), udpnet.WithFlushWindow(flush))
	e := &env{name: "live", prov: p, live: p, start: time.Now()}
	for i := 0; i < n; i++ {
		e.hosts = append(e.hosts, netapi.HostID(i+1))
	}
	e.wrapImpair(imp)
	return e
}

// wrapImpair puts the seeded impairment shim between the nodes and the
// provider when cfg impairs anything.
func (e *env) wrapImpair(cfg impair.Config) {
	if cfg.Active() {
		e.imp = impair.Wrap(e.prov, cfg)
		e.prov = e.imp
	}
}

// node brings up ADAPTIVE on host i.
func (e *env) node(i int, seed int64, extra ...adaptive.Option) (*adaptive.Node, error) {
	opts := append([]adaptive.Option{
		adaptive.WithProvider(e.prov), adaptive.WithHost(e.hosts[i]),
		adaptive.WithSeed(seed), adaptive.WithName(fmt.Sprintf("%s-%d", e.name, i)),
	}, extra...)
	return adaptive.NewNode(opts...)
}

// do runs fn where protocol code runs: inline on the simulator, on the
// provider's event loop (blocking until it returns) live.
func (e *env) do(fn func()) {
	if e.k != nil {
		fn()
		return
	}
	e.live.Wait(fn)
}

// until advances the environment in increments of step until cond holds,
// giving up after limit on the environment's clock; it reports whether cond
// held. On the simulator each increment runs the kernel for step of virtual
// time; live, cond is evaluated on the event loop and the caller sleeps step
// of wall time between evaluations.
func (e *env) until(step, limit time.Duration, cond func() bool) bool {
	begin := e.now()
	for {
		var ok bool
		e.do(func() { ok = cond() })
		if ok {
			return true
		}
		if e.now()-begin >= limit {
			return false
		}
		if e.k != nil {
			e.k.RunFor(step)
		} else {
			time.Sleep(step)
		}
	}
}

// now is the time since the environment started, on its own clock.
func (e *env) now() time.Duration {
	if e.k != nil {
		return e.k.Now()
	}
	return time.Since(e.start)
}

// close releases the environment's sockets and event loop.
func (e *env) close() {
	if e.live != nil {
		e.live.Close()
	}
}

// listen installs an accept callback on a node's port.
func (e *env) listen(n *adaptive.Node, port uint16, accept func(*adaptive.Conn)) error {
	var err error
	e.do(func() { err = n.Listen(port, nil, accept) })
	return err
}

var errEstablishStalled = errors.New("establishment stalled")

// dial opens a connection and pumps the environment until it is established
// (errEstablishStalled after limit).
func (e *env) dial(from *adaptive.Node, acd *adaptive.ACD, opts *adaptive.DialOptions, limit time.Duration) (*adaptive.Conn, error) {
	var conn *adaptive.Conn
	var err error
	e.do(func() { conn, err = from.Dial(acd, opts) })
	if err != nil {
		return nil, err
	}
	if !e.until(time.Millisecond, limit, conn.Established) {
		return nil, errEstablishStalled
	}
	return conn, nil
}

// sendChunked queues data on c in 32 KiB Send calls.
func sendChunked(c *adaptive.Conn, data []byte) error {
	const chunk = 32 << 10
	for len(data) > 0 {
		n := min(chunk, len(data))
		if err := c.Send(data[:n]); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		data = data[n:]
	}
	return nil
}
