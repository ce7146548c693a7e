package netsim

import (
	"errors"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/sim"
)

// Endpoint is a bound simulated packet endpoint; it implements
// netapi.Endpoint.
type Endpoint struct {
	host   *Host
	addr   netapi.Addr
	recv   netapi.Receiver
	cost   CPUCost
	closed bool
}

var _ netapi.Endpoint = (*Endpoint)(nil)

// Send injects pkt into the network toward dst. The packet bytes are copied
// immediately into a pooled slab; the caller keeps ownership of pkt, and the
// network recycles the slab once the packet is delivered or dropped.
func (e *Endpoint) Send(pkt []byte, dst netapi.Addr) error {
	if e.closed {
		return errors.New("netsim: endpoint closed")
	}
	owned := e.host.net.slabs().GetSlab(len(pkt))
	copy(owned, pkt)
	return e.host.net.send(e.host, owned, e.addr, dst, e.cost)
}

// SetReceiver installs the packet upcall.
func (e *Endpoint) SetReceiver(r netapi.Receiver) { e.recv = r }

// LocalAddr returns the bound address.
func (e *Endpoint) LocalAddr() netapi.Addr { return e.addr }

// SetCPUCost declares the protocol-processing cost this endpoint's stack
// imposes per packet (see CPUCost).
func (e *Endpoint) SetCPUCost(c CPUCost) { e.cost = c }

// Close unbinds the endpoint.
func (e *Endpoint) Close() error {
	if !e.closed {
		e.closed = true
		delete(e.host.endpoints, e.addr.Port)
	}
	return nil
}

// Clock adapts the simulation kernel to netapi.Clock.
type Clock struct{ k *sim.Kernel }

var _ netapi.Clock = Clock{}

// Now returns virtual time.
func (c Clock) Now() time.Duration { return c.k.Now() }

// AfterFunc schedules fn on the kernel. sim.Timer's generation check makes
// the returned handle safe to Stop even after the event has fired.
func (c Clock) AfterFunc(d time.Duration, fn func()) netapi.Timer {
	return c.k.Schedule(d, fn)
}

var _ netapi.Provider = (*Network)(nil)

// Clock returns the network's virtual clock.
func (n *Network) Clock() netapi.Clock { return Clock{k: n.kernel} }

// Open binds an endpoint on host at port (0 = ephemeral). It implements
// netapi.Provider.
func (n *Network) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	h, ok := n.hosts[host]
	if !ok {
		return nil, errors.New("netsim: unknown host")
	}
	if port == 0 {
		for h.endpoints[h.nextPort] != nil {
			h.nextPort++
			if h.nextPort == 0 {
				h.nextPort = 49152
			}
		}
		port = h.nextPort
		h.nextPort++
	} else if h.endpoints[port] != nil {
		return nil, errors.New("netsim: port in use")
	}
	ep := &Endpoint{host: h, addr: netapi.Addr{Host: host, Port: port}}
	h.endpoints[port] = ep
	return ep, nil
}

// Kernel exposes the simulation kernel behind a Clock (tests drive time
// through it).
func (c Clock) Kernel() *sim.Kernel { return c.k }
