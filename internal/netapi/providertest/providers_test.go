package providertest_test

import (
	"testing"
	"time"

	"adaptive/internal/impair"
	"adaptive/internal/netapi"
	"adaptive/internal/netapi/providertest"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/udpnet"
)

// TestProviders runs the contract over every provider arm: netsim in both
// delivery modes, udpnet batched and per-packet, and each again behind an
// impair.Wrap that impairs nothing.
func TestProviders(t *testing.T) {
	if (impair.Config{}).Active() {
		t.Fatal("the zero impairment config claims to be active")
	}
	arms := []struct {
		name  string
		world func(wrapper) func(*testing.T) providertest.World
	}{
		{"netsim-batched", simWorld(netsim.DeliverBatched)},
		{"netsim-perpacket", simWorld(netsim.DeliverPerPacket)},
		{"udpnet-window", udpWorld(udpnet.WithFlushWindow(200 * time.Microsecond))},
		{"udpnet-perpacket", udpWorld()},
	}
	bare := func(p netapi.Provider) netapi.Provider { return p }
	impaired := func(p netapi.Provider) netapi.Provider { return impair.Wrap(p, impair.Config{Seed: 1}) }
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) { providertest.Run(t, a.world(bare)) })
		t.Run("impair-"+a.name, func(t *testing.T) { providertest.Run(t, a.world(impaired)) })
	}
}

// wrapper puts a provider behind another, or leaves it bare.
type wrapper func(netapi.Provider) netapi.Provider

// simWorld is four netsim hosts on one kernel, every pair joined by its own
// lossless link each way.
func simWorld(mode netsim.DeliveryMode) func(wrapper) func(*testing.T) providertest.World {
	return func(wrap wrapper) func(*testing.T) providertest.World {
		return func(t *testing.T) providertest.World {
			k := sim.NewKernel(1)
			n := netsim.New(k)
			n.SetDeliveryMode(mode)
			p := wrap(n)
			link := netsim.LinkConfig{Bandwidth: 1e9, PropDelay: 100 * time.Microsecond, MTU: 1 << 16}
			var hosts []providertest.Host
			for i := 0; i < 4; i++ {
				hosts = append(hosts, providertest.Host{ID: n.AddHost().ID(), Provider: p, Do: func(fn func()) { fn() }})
			}
			for _, a := range hosts {
				for _, b := range hosts {
					if a.ID != b.ID {
						n.SetRoute(a.ID, b.ID, n.NewLink(link))
					}
				}
			}
			return providertest.World{
				Hosts: hosts,
				Group: func(members ...netapi.HostID) netapi.HostID {
					g := n.NewGroup()
					for _, m := range members {
						n.Join(g, m)
					}
					return g
				},
				Advance: func(d time.Duration) { k.RunFor(d) },
				Close:   func() {},
			}
		}
	}
}

// udpWorld is hosts 1–3 on one udpnet provider and host 4 on a second one,
// which each side reaches only through RegisterHost.
func udpWorld(opts ...udpnet.Option) func(wrapper) func(*testing.T) providertest.World {
	return func(wrap wrapper) func(*testing.T) providertest.World {
		return func(t *testing.T) providertest.World {
			p, q := udpnet.New(opts...), udpnet.New(opts...)
			near, far := wrap(peered{p, q}), wrap(peered{q, p})
			hosts := []providertest.Host{
				{ID: 1, Provider: near, Do: p.Wait},
				{ID: 2, Provider: near, Do: p.Wait},
				{ID: 3, Provider: near, Do: p.Wait},
				{ID: 4, Provider: far, Do: q.Wait},
			}
			next := netapi.MulticastBit
			return providertest.World{
				Hosts: hosts,
				Group: func(members ...netapi.HostID) netapi.HostID {
					next++
					p.RegisterGroup(next, members...)
					q.RegisterGroup(next, members...)
					return next
				},
				Advance: time.Sleep,
				Close: func() {
					q.Close()
					p.Close()
				},
			}
		}
	}
}

// peered opens each host on its own provider and registers the socket with
// the peer provider, the one way the peer's endpoints can reach it.
type peered struct {
	*udpnet.Provider
	peer *udpnet.Provider
}

func (pp peered) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	ep, err := pp.Provider.Open(host, port)
	if err != nil {
		return nil, err
	}
	return ep, pp.peer.RegisterHost(host, ep.(*udpnet.Endpoint).UDPAddr())
}
