package netsim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// CPUCost models the host processing expended on one PDU by a transport
// stack. The paper attributes the throughput-preservation problem to exactly
// this per-packet software overhead (memory copies, context switches,
// interrupt handling — §2.2A); endpoints of lightweight configurations
// declare smaller costs than monolithic ones.
type CPUCost struct {
	PerPDU  time.Duration // fixed protocol-processing cost per packet
	PerByte time.Duration // data-touching cost (copies, checksums in software)
}

// Cost returns the CPU time to process a packet of size bytes.
func (c CPUCost) Cost(size int) time.Duration {
	return c.PerPDU + time.Duration(size)*c.PerByte
}

// Host is a simulated end system with a single CPU shared by its endpoints.
type Host struct {
	net        *Network
	id         netapi.HostID
	endpoints  map[uint16]*Endpoint
	nextPort   uint16
	cpuBusy    time.Duration
	CPUDropCap int // pending receive work beyond which packets drop (0 = ∞)
	cpuPending int
	stats      HostStats
}

// HostStats counts host-level activity.
type HostStats struct {
	Sent        uint64
	Received    uint64
	DropsNoPort uint64
	DropsCPU    uint64
	CPUTime     time.Duration
}

// Stats returns a copy of the host counters.
func (h *Host) Stats() HostStats { return h.stats }

// ID returns the host identifier.
func (h *Host) ID() netapi.HostID { return h.id }

// cpu serializes processing through the host CPU and returns the completion
// time of this unit of work.
func (h *Host) cpu(cost time.Duration) time.Duration {
	now := h.net.kernel.Now()
	start := h.cpuBusy
	if start < now {
		start = now
	}
	h.cpuBusy = start + cost
	h.stats.CPUTime += cost
	return h.cpuBusy
}

// DeliveryMode selects how packets move from transit to delivery.
type DeliveryMode uint8

const (
	// DeliverBatched (the default) queues arrivals per link and drains
	// every packet due at or before the current virtual time in a single
	// kernel callback, and runs zero-delay host CPU completions inline, so
	// steady-state kernel events stay flat as packet rates grow. See
	// linkqueue.go.
	DeliverBatched DeliveryMode = iota
	// DeliverPerPacket schedules one kernel event per packet movement —
	// the pre-batching code path, kept for A/B equivalence tests.
	DeliverPerPacket
)

// Network is the simulated internetwork.
type Network struct {
	kernel *sim.Kernel
	hosts  map[netapi.HostID]*Host
	routes map[[2]netapi.HostID][]*Link
	groups map[netapi.HostID]map[netapi.HostID]bool
	nextID netapi.HostID
	mode   DeliveryMode

	// Fault-injection state (see faults.go).
	blocked    map[[2]netapi.HostID]bool // severed host pairs (partitions)
	faultStats FaultStats

	linkSeq uint32 // creation-ordered link ids (deterministic across runs)

	// The kernel's loop tier (see LoopCache): the pooled objects of every
	// stack on this network, and the flights carrying their packets.
	cache   wire.Cache
	flights message.FreeList[*flight]
}

// New creates an empty network on the kernel.
func New(k *sim.Kernel) *Network {
	return &Network{
		kernel: k,
		hosts:  make(map[netapi.HostID]*Host),
		routes: make(map[[2]netapi.HostID][]*Link),
		groups: make(map[netapi.HostID]map[netapi.HostID]bool),
		nextID: 1,
	}
}

// SetDeliveryMode switches between batched and per-packet delivery. Call it
// before traffic flows; switching with packets in flight panics.
func (n *Network) SetDeliveryMode(m DeliveryMode) {
	if m == n.mode {
		return
	}
	for _, links := range n.routes {
		for _, l := range links {
			if l.qHead != nil {
				panic("netsim: SetDeliveryMode with packets in flight")
			}
		}
	}
	n.mode = m
}

// TotalReceived sums delivered packets across all hosts (the denominator of
// the kernel-events-per-delivered-packet scale metric).
func (n *Network) TotalReceived() uint64 {
	var total uint64
	for _, h := range n.hosts {
		total += h.stats.Received
	}
	return total
}

// Kernel returns the simulation kernel driving this network.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// LoopCache returns the free lists of the network's event loop — the kernel,
// which runs every stack on the network, every packet movement and every
// timer on one goroutine at a time. A protocol stack finds them here
// (protograph.NewStack), so its per-packet buffers, views and PDUs recycle
// without a lock; the network's own packet slabs come from the same lists.
func (n *Network) LoopCache() *wire.Cache { return &n.cache }

func (n *Network) slabs() *message.Cache { return n.cache.Messages() }

// AddHost creates a host and returns it.
func (n *Network) AddHost() *Host {
	id := n.nextID
	n.nextID++
	h := &Host{net: n, id: id, endpoints: make(map[uint16]*Endpoint), nextPort: 49152}
	n.hosts[id] = h
	return h
}

// Host returns the host with the given id, or nil.
func (n *Network) Host(id netapi.HostID) *Host { return n.hosts[id] }

// NewLink creates a simplex link with the given characteristics.
func (n *Network) NewLink(cfg LinkConfig) *Link {
	if cfg.Bandwidth <= 0 {
		panic("netsim: link needs positive bandwidth")
	}
	n.linkSeq++
	return &Link{net: n, cfg: cfg, id: n.linkSeq}
}

// SetRoute installs the unidirectional path from a to b as a sequence of
// links. Routes may be replaced at any time; packets already in flight finish
// on the path they started on (the paper's route-change scenario).
func (n *Network) SetRoute(a, b netapi.HostID, path ...*Link) {
	if len(path) == 0 {
		panic("netsim: empty route")
	}
	n.routes[[2]netapi.HostID{a, b}] = path
}

// Route returns the current path from a to b, or nil.
func (n *Network) Route(a, b netapi.HostID) []*Link {
	return n.routes[[2]netapi.HostID{a, b}]
}

// NewGroup allocates a fresh multicast group address.
func (n *Network) NewGroup() netapi.HostID {
	id := n.nextID | netapi.MulticastBit
	n.nextID++
	n.groups[id] = make(map[netapi.HostID]bool)
	return id
}

// Join adds host to group; Leave removes it.
func (n *Network) Join(group, host netapi.HostID) {
	g, ok := n.groups[group]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown group %v", group))
	}
	g[host] = true
}

// Leave removes host from group.
func (n *Network) Leave(group, host netapi.HostID) {
	if g, ok := n.groups[group]; ok {
		delete(g, host)
	}
}

// Members returns the current group membership in ascending host order
// (sorted so multicast fan-out is deterministic across runs).
func (n *Network) Members(group netapi.HostID) []netapi.HostID {
	var out []netapi.HostID
	for h := range n.groups[group] {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// PathRTT estimates the round-trip propagation+serialization delay for a
// probe-sized packet (used by tests and the network state descriptor).
func (n *Network) PathRTT(a, b netapi.HostID, size int) time.Duration {
	var rtt time.Duration
	for _, l := range n.routes[[2]netapi.HostID{a, b}] {
		rtt += l.cfg.PropDelay + time.Duration(float64(size*8)/l.cfg.Bandwidth*float64(time.Second))
	}
	for _, l := range n.routes[[2]netapi.HostID{b, a}] {
		rtt += l.cfg.PropDelay + time.Duration(float64(size*8)/l.cfg.Bandwidth*float64(time.Second))
	}
	return rtt
}

var errNoRoute = errors.New("netsim: no route to host")

// send pushes pkt from src toward dst (unicast or multicast), beginning after
// the sender-side CPU cost. send takes ownership of pkt, which must be a slab
// of the network's cache; it is recycled on every error and drop path.
func (n *Network) send(src *Host, pkt []byte, srcAddr, dst netapi.Addr, cost CPUCost) error {
	src.stats.Sent++
	done := src.cpu(cost.Cost(len(pkt)))
	if dst.Host.IsMulticast() {
		if _, ok := n.groups[dst.Host]; !ok {
			n.slabs().PutSlab(pkt)
			return fmt.Errorf("netsim: unknown multicast group %v", dst.Host)
		}
		// One flight per member, membership snapshotted (sorted) now; each
		// flight resolves its own route when the sender CPU releases it.
		dstAddr := netapi.Addr{Host: dst.Host, Port: dst.Port}
		for _, m := range n.Members(dst.Host) {
			if m == src.id {
				continue
			}
			if n.Partitioned(src.id, m) {
				n.partitionDrop() // silent loss, like any other network drop
				continue
			}
			fl := newFlight(n, src.id, m, n.slabs().GetSlab(len(pkt)), srcAddr, dstAddr)
			copy(fl.pkt, pkt)
			n.launch(fl, done)
		}
		n.slabs().PutSlab(pkt)
		return nil
	}
	if _, ok := n.hosts[dst.Host]; !ok {
		n.slabs().PutSlab(pkt)
		return fmt.Errorf("netsim: unknown host %v", dst.Host)
	}
	if n.routes[[2]netapi.HostID{src.id, dst.Host}] == nil {
		n.slabs().PutSlab(pkt)
		return errNoRoute
	}
	if n.Partitioned(src.id, dst.Host) {
		// A partition is a network fault, not a caller error: the packet is
		// silently lost so the transport sees it as loss and recovers.
		n.partitionDrop()
		n.slabs().PutSlab(pkt)
		return nil
	}
	fl := newFlight(n, src.id, dst.Host, pkt, srcAddr, dst)
	n.launch(fl, done)
	return nil
}

// launch releases a fresh flight once the sender CPU frees it at done. In
// batched mode a zero-delay release (the common lightweight-stack case) steps
// the flight inline — entering the first link's arrival queue without a
// dedicated kernel event; transit never re-enters protocol code, so inline
// stepping is re-entrancy-safe even mid-pump.
func (n *Network) launch(fl *flight, done time.Duration) {
	now := n.kernel.Now()
	if n.mode == DeliverBatched && done <= now {
		fl.step()
		return
	}
	n.kernel.ScheduleArg(done-now, flightStep, fl)
}

// arrive delivers a flight's packet to the destination host's endpoint after
// receive-side CPU processing.
func (n *Network) arrive(fl *flight) {
	h, ok := n.hosts[fl.to]
	if !ok {
		fl.free()
		return
	}
	ep, ok := h.endpoints[fl.dstAddr.Port]
	if !ok || ep.recv == nil {
		h.stats.DropsNoPort++
		fl.free()
		return
	}
	if h.CPUDropCap > 0 && h.cpuPending >= h.CPUDropCap {
		h.stats.DropsCPU++
		fl.free()
		return
	}
	done := h.cpu(ep.cost.Cost(len(fl.pkt)))
	if n.mode == DeliverBatched && done <= n.kernel.Now() {
		// Zero receive-side CPU cost: upcall inline from the drain — no
		// completion event. The receiver-copies contract (netapi) makes
		// freeing the flight immediately after the upcall safe.
		h.stats.Received++
		ep.recv(fl.pkt, fl.srcAddr)
		fl.free()
		return
	}
	h.cpuPending++
	fl.host = h
	fl.ep = ep
	n.kernel.ScheduleArg(done-n.kernel.Now(), flightRecv, fl)
}
