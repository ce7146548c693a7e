package adaptive

import (
	"errors"

	"adaptive/internal/event"
	"adaptive/internal/mantts"
	"adaptive/internal/mechanism"
	"adaptive/internal/session"
)

// Errors returned by Conn operations.
var (
	// ErrClosed reports an operation on a fully terminated connection.
	ErrClosed = errors.New("adaptive: connection closed")
	// ErrUnmanaged reports an operation that needs MANTTS policy machinery
	// (participant management) on a connection opened without it (DialSpec,
	// passive accepts).
	ErrUnmanaged = errors.New("adaptive: operation requires a MANTTS-managed connection")
	// ErrNotMulticast reports participant management on a unicast
	// connection.
	ErrNotMulticast = mantts.ErrNotMulticast
)

// Conn is an open ADAPTIVE transport connection (one TKO_Session plus, when
// opened through Dial, its MANTTS policy machinery). When the connection
// terminates — however it ends — the handle lets go of the session and keeps a
// final snapshot: ConnID, LocalPort, Spec, TSC, Closed and Stats keep
// answering, operations report ErrClosed (ErrMigrated after a hand-off), and
// nothing the connection used stays reachable through it, so holding closed
// Conns costs a few hundred bytes each.
type Conn struct {
	node    *Node
	managed *mantts.Managed  // nil for DialSpec / passive connections, and once terminated
	sess    *session.Session // nil once terminated
	watch   *event.Event     // dial context poll; nil without one

	connID    uint32
	localPort uint16
	tsc       TSC
	hasTSC    bool
	migrated  bool  // terminated by a hand-off to another host
	spec      *Spec // final configuration; set at termination
	stats     Stats // final counters; set at termination
}

// newConn wraps a session and enters the handle in the node's table of live
// connections, which is how the terminal transition finds it (finish).
func (n *Node) newConn(s *session.Session, m *mantts.Managed) *Conn {
	c := &Conn{node: n, managed: m, sess: s, connID: s.ConnID(), localPort: s.LocalPort()}
	if m != nil {
		c.tsc, c.hasTSC = m.TSC, true
	}
	n.conns[c.connID] = c
	return c
}

// finish is the handle's share of the terminal transition: take the final
// snapshot and drop everything else.
func (c *Conn) finish() {
	c.stats, c.spec, c.migrated = c.Stats(), c.sess.Spec(), c.sess.Retired()
	if c.watch != nil {
		c.watch.Cancel()
	}
	c.sess, c.managed, c.watch = nil, nil, nil
}

// errDone is what an operation on a terminated connection reports.
func (c *Conn) errDone() error {
	if c.migrated {
		return ErrMigrated
	}
	return ErrClosed
}

// Send queues data for transmission. Data larger than the negotiated
// segment size is segmented; the final segment carries the end-of-message
// marker, which the receiver sees as eom.
func (c *Conn) Send(data []byte) error {
	if c.sess == nil {
		return c.errDone()
	}
	return c.sess.Send(data)
}

// OnReceive installs the delivery callback. The data slice is only valid
// during the callback.
func (c *Conn) OnReceive(fn func(data []byte, eom bool)) {
	c.OnDelivery(func(d Delivery) {
		fn(d.Msg.Bytes(), d.EOM)
		d.Msg.Release()
	})
}

// OnDelivery installs a zero-copy delivery callback; the callback owns the
// message and must Release it.
func (c *Conn) OnDelivery(fn func(d Delivery)) {
	if c.sess != nil {
		c.sess.SetReceiver(fn)
	}
}

// Close terminates the connection with the configured semantics (graceful
// closes drain acknowledged data first). Closing an already-terminated
// connection returns ErrClosed; a close already in progress is a no-op.
func (c *Conn) Close() error {
	if c.sess == nil {
		return c.errDone()
	}
	c.sess.Close()
	return nil
}

// Abort terminates the connection immediately, skipping the closing
// handshake and any graceful drain.
func (c *Conn) Abort() error {
	if c.sess == nil {
		return c.errDone()
	}
	c.sess.Abort("application abort")
	return nil
}

// Established reports whether data may flow.
func (c *Conn) Established() bool { return c.sess != nil && c.sess.Established() }

// Closed reports whether termination completed.
func (c *Conn) Closed() bool { return c.sess == nil }

// ConnID returns the connection identifier.
func (c *Conn) ConnID() uint32 { return c.connID }

// LocalPort returns the connection's local transport port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Spec returns the connection's current configuration (the last one, once
// the connection has terminated).
func (c *Conn) Spec() Spec {
	if c.sess == nil {
		return *c.spec
	}
	return *c.sess.Spec()
}

// TSC returns the Transport Service Class MANTTS selected (Stage I), valid
// for dialed connections.
func (c *Conn) TSC() (TSC, bool) { return c.tsc, c.hasTSC }

// Reconfigure applies an explicit SCS change (§4.1.2 "explicit
// reconfiguration"): the mutation is negotiated with the peer over the
// signaling channel and applied to the live session via segue. Connections
// opened with DialSpec reconfigure locally only. Synthesis failures and
// refused segues (immutable template sessions) are returned.
func (c *Conn) Reconfigure(mutate func(s *Spec)) error {
	if c.sess == nil {
		return c.errDone()
	}
	if c.managed != nil {
		return c.node.entity.Reconfigure(c.managed, mutate)
	}
	ns := *c.sess.Spec()
	mutate(&ns)
	return c.sess.ApplySpec(&ns)
}

// OnBudgetChange installs the content-adaptation callback for the host
// bandwidth arbiter: fn receives every pacing-budget grant (bits per
// second) the arbiter issues to this connection. A video source steps its
// bitrate ladder here; a bulk transfer may ignore it (the pacer enforces
// the budget regardless). The callback runs on the node's event loop —
// return quickly. Returns ErrUnmanaged for connections without MANTTS
// machinery; a node without WithArbiter never fires it.
func (c *Conn) OnBudgetChange(fn func(budgetBps float64)) error {
	if c.sess == nil {
		return c.errDone()
	}
	if c.managed == nil {
		return ErrUnmanaged
	}
	c.managed.OnBudget = fn
	return nil
}

// SetBandwidthDemand updates this connection's declared bandwidth appetite
// with the host arbiter (a codec that stepped its ladder down releases its
// unused share to other sessions immediately rather than at the next
// squeeze). No-op on nodes without WithArbiter; ErrUnmanaged without MANTTS
// machinery.
func (c *Conn) SetBandwidthDemand(bps float64) error {
	if c.sess == nil {
		return c.errDone()
	}
	if c.managed == nil {
		return ErrUnmanaged
	}
	c.node.entity.SetDemand(c.managed, bps)
	return nil
}

// AddParticipant invites a host into a multicast connection. It returns
// ErrUnmanaged for connections without MANTTS machinery and ErrNotMulticast
// for unicast ones.
func (c *Conn) AddParticipant(host HostID) error {
	if c.sess == nil {
		return c.errDone()
	}
	if c.managed == nil {
		return ErrUnmanaged
	}
	return c.node.entity.AddParticipant(c.managed, host)
}

// RemoveParticipant signals a member to leave a multicast connection (same
// errors as AddParticipant).
func (c *Conn) RemoveParticipant(host HostID) error {
	if c.sess == nil {
		return c.errDone()
	}
	if c.managed == nil {
		return ErrUnmanaged
	}
	return c.node.entity.RemoveParticipant(c.managed, host)
}

// Session exposes the underlying TKO_Session for whitebox inspection
// (experiments read transfer state and counters through this); nil once the
// connection has terminated.
func (c *Conn) Session() *session.Session { return c.sess }

// Stats summarizes the connection's whitebox counters: the session's meters
// and the counters its recovery strategies share, by the names the session
// declares them under (st.SentPDUs, st.Retransmissions, ...).
type Stats struct {
	session.Meters
	mechanism.Counters
}

// Stats returns a snapshot of the connection counters; after the connection
// has terminated, the final one.
func (c *Conn) Stats() Stats {
	if c.sess == nil {
		return c.stats
	}
	return Stats{c.sess.Meters, c.sess.State().Counters}
}
