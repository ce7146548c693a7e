// Package netapi defines the narrow interfaces that decouple the ADAPTIVE
// transport system from the network and clock it runs on.
//
// Two providers implement these interfaces: internal/netsim (deterministic
// virtual time, simulated links) and internal/udpnet (real clock, UDP
// sockets). All protocol mechanisms are written solely against netapi, which
// is what lets the identical session code run in both environments — the
// paper's "controlled prototyping environment" property. That holds because
// every provider keeps one contract, stated on the types below and checked by
// internal/netapi/providertest over netsim and udpnet in each delivery mode,
// bare and behind impair: upcalls and timer callbacks run only on the
// provider's event loop; a packet buffer lives only as long as its upcall; a
// lossless provider delivers each Send once, in order per source and
// destination; a superseded timer arm never fires; nothing is delivered
// after Close.
package netapi

import (
	"fmt"
	"time"
)

// HostID identifies a host. IDs with the MulticastBit set name multicast
// groups rather than individual hosts.
type HostID uint32

// MulticastBit marks a HostID as a multicast group address.
const MulticastBit HostID = 1 << 31

// IsMulticast reports whether the ID names a multicast group.
func (h HostID) IsMulticast() bool { return h&MulticastBit != 0 }

func (h HostID) String() string {
	if h.IsMulticast() {
		return fmt.Sprintf("mcast-%d", uint32(h&^MulticastBit))
	}
	return fmt.Sprintf("host-%d", uint32(h))
}

// Addr is a transport-level address: a host (or multicast group) plus a port.
type Addr struct {
	Host HostID
	Port uint16
}

// IsMulticast reports whether the address names a multicast group.
func (a Addr) IsMulticast() bool { return a.Host.IsMulticast() }

func (a Addr) String() string { return fmt.Sprintf("%v:%d", a.Host, a.Port) }

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the timer was still
	// pending. After true the callback never runs, even if its expiry came
	// due and was queued behind the loop's current work. Called on the loop,
	// false means the callback has run; called off it, it may be running.
	// Stopping an expired or stopped timer is a no-op. A provider timer with
	// a Reset(d) method re-arms in place, and the arm Reset supersedes never
	// fires either.
	Stop() bool
}

// Clock abstracts time for protocol code: virtual time under the simulator,
// wall time under udpnet.
type Clock interface {
	Now() time.Duration
	// AfterFunc schedules fn to run after d. fn runs on the provider's
	// event loop; protocol code never needs its own locking.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Receiver consumes packets arriving at an endpoint. It runs on the
// provider's event loop. The packet buffer is valid only for the duration of
// the call: providers recycle delivery buffers through pools (poison-filled
// in message poison mode), so a callee that keeps bytes past its return must
// copy them (the protocol stack does — wire.DecodeInto copies payloads into
// pooled messages).
type Receiver func(pkt []byte, from Addr)

// Packet is one element of a batched delivery: the datagram bytes plus the
// transport-level source address.
type Packet struct {
	Data []byte
	From Addr
}

// BatchReceiver consumes a batch of packets in one upcall. Packet buffers
// follow the Receiver rule: valid only for the duration of the call. The
// slice itself is provider-owned scratch — don't retain it either.
type BatchReceiver func(batch []Packet)

// BatchEndpoint is the optional batching extension of Endpoint: providers
// that coalesce arrivals (udpnet's reader, a frame train's frames) deliver
// a whole batch in one upcall when a BatchReceiver is installed, amortizing
// the per-packet dispatch. When both a Receiver and a BatchReceiver are
// installed the batch upcall wins where the provider batches; either way no
// packet is delivered twice. Providers without batching simply don't
// implement this interface (or, as a wrapper, ignore the call) and the
// per-packet Receiver is used.
type BatchEndpoint interface {
	Endpoint
	SetBatchReceiver(r BatchReceiver)
}

// Endpoint is a bound packet endpoint (one per transport stack instance).
type Endpoint interface {
	// Send transmits pkt toward dst; the caller may reuse pkt once it
	// returns. For multicast destinations the provider fans the packet out
	// to all group members except the sender. Send never blocks; packets
	// that exceed queue capacity are dropped by the provider (congestion
	// loss).
	Send(pkt []byte, dst Addr) error
	// SetReceiver installs the upcall for arriving packets. It must be
	// called before traffic flows.
	SetReceiver(r Receiver)
	// LocalAddr returns the endpoint's bound address.
	LocalAddr() Addr
	// Close unbinds the endpoint; its address can be opened again. Once a
	// Close called on the loop returns, no upcall runs on the endpoint (off
	// the loop, one already begun may finish), and Send returns an error.
	Close() error
}

// Provider is a network environment capable of creating endpoints and
// supplying the clock protocol code must use.
type Provider interface {
	Clock() Clock
	// Open binds an endpoint on host at port. Port 0 picks an ephemeral
	// port.
	Open(host HostID, port uint16) (Endpoint, error)
}
