package netsim

import (
	"time"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
)

// flight carries one packet through the network: sender CPU, each link on the
// resolved route, then receiver CPU and the endpoint upcall. Flights and
// their packet slabs are pooled on the network's own loop tier (a network is
// one kernel's loop), and every step is scheduled through ScheduleArg with a
// package-level function, so a packet in steady state allocates nothing and
// takes no lock.
//
// The packet slab is owned by the flight and recycled the moment the flight
// ends (any drop path, or right after the receive upcall returns): receivers
// must copy what they keep, which is the documented netapi contract
// ("providers reuse their receive buffers").
type flight struct {
	net     *Network
	path    []*Link
	i       int // next link index once the route is resolved
	from    netapi.HostID
	to      netapi.HostID
	pkt     []byte
	srcAddr netapi.Addr
	dstAddr netapi.Addr
	ep      *Endpoint // set once receiver CPU is committed
	host    *Host

	// Batched-delivery queue state (see linkqueue.go): arrival instant and
	// the intrusive link in the owning Link's arrival queue.
	at    time.Duration
	qnext *flight
}

// flightPool recycles flights through the network's own list first (see
// message.Pool).
var flightPool = message.Pool[*flight]{Depth: 256}

// newFlight takes a flight from the network's list; pkt must be a slab of
// the network's cache, which the flight now owns.
func newFlight(n *Network, from, to netapi.HostID, pkt []byte, srcAddr, dstAddr netapi.Addr) *flight {
	fl, ok := flightPool.Get(&n.flights)
	if !ok {
		fl = new(flight)
	}
	fl.net = n
	fl.from = from
	fl.to = to
	fl.pkt = pkt
	fl.srcAddr = srcAddr
	fl.dstAddr = dstAddr
	return fl
}

// free recycles the flight and its packet slab.
func (fl *flight) free() {
	n := fl.net
	if fl.pkt != nil {
		n.slabs().PutSlab(fl.pkt)
	}
	*fl = flight{}
	flightPool.Put(&n.flights, fl)
}

// flightStep is the ScheduleArg trampoline for every movement of a flight.
func flightStep(v any) { v.(*flight).step() }

// step advances the flight: resolve the route (once, at injection time, so
// in-flight packets keep their path across route changes), push through the
// next link, or arrive.
func (fl *flight) step() {
	if fl.path == nil {
		if fl.net.Partitioned(fl.from, fl.to) {
			fl.net.partitionDrop()
			fl.free() // severed while awaiting sender CPU; packet lost
			return
		}
		fl.path = fl.net.routes[[2]netapi.HostID{fl.from, fl.to}]
		if fl.path == nil {
			fl.free() // destination became unreachable; packet lost
			return
		}
	}
	if fl.i == len(fl.path) {
		fl.net.arrive(fl)
		return
	}
	l := fl.path[fl.i]
	fl.i++
	l.transit(fl)
}

// flightRecv delivers the packet to the endpoint after receiver-side CPU.
func flightRecv(v any) {
	fl := v.(*flight)
	fl.host.cpuPending--
	fl.host.stats.Received++
	fl.ep.recv(fl.pkt, fl.srcAddr)
	fl.free()
}
