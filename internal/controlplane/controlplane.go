package controlplane

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"adaptive/internal/netapi"
)

// Controller is the per-deployment placement and lease authority. It holds
// the routing view (connection → owning host), admits sessions against
// per-host capacity budgets, and stamps every ownership change with a
// monotonically increasing lease epoch so exactly one host owns a session's
// egress at any instant — stale owners are fenced at the receiving stack by
// epoch comparison, never by wall-clock guesswork.
//
// The controller is an in-process object (both harnesses run every node in
// one OS process); handoff records and ownership updates still travel the
// provider wire, so the datapath protocol is identical in sim and live.
type Controller struct {
	mu    sync.Mutex
	hosts map[netapi.HostID]*hostEntry
	place map[uint32]*placement

	// Counters (guarded by mu; exported via MetricCounters).
	sessionsPlaced   uint64
	migrations       uint64
	migrationsFailed uint64
	admissionRejects uint64
	leaseEpochs      uint64
	handoffsRefused  uint64 // inbound hand-offs an agent turned away (too large, or too many open)
	handoffsExpired  uint64 // inbound hand-offs dropped incomplete at the channel's give-up horizon

	// OnMigrationDone fires after a migration completes: the routing view
	// has flipped and the source copy is retired. OnMigrationFailed fires
	// after a rollback (the source has resumed egress). Both run on the
	// provider event loop; install before the first Migrate call.
	OnMigrationDone   func(connID uint32, target netapi.HostID, epoch uint64)
	OnMigrationFailed func(connID uint32, epoch uint64)
}

type hostEntry struct {
	agent    *Agent
	capacity int
	used     int
}

type placement struct {
	owner netapi.HostID
	epoch uint64

	// In-flight migration, if any.
	migrating   bool
	target      netapi.HostID
	targetEpoch uint64
}

// NewController creates an empty controller.
func NewController() *Controller {
	return &Controller{
		hosts: make(map[netapi.HostID]*hostEntry),
		place: make(map[uint32]*placement),
	}
}

// enroll registers a host's agent and capacity budget (capacity <= 0 means
// unlimited). Called by NewAgent.
func (c *Controller) enroll(a *Agent, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hosts[a.host] = &hostEntry{agent: a, capacity: capacity}
}

// Place admits a session onto its current host and grants the initial lease
// (epoch 1). It fails when the host is not enrolled or its capacity budget
// is exhausted; rejects are counted.
func (c *Controller) Place(connID uint32, host netapi.HostID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	he := c.hosts[host]
	if he == nil {
		return fmt.Errorf("controlplane: host %d not enrolled", host)
	}
	if _, ok := c.place[connID]; ok {
		return fmt.Errorf("controlplane: conn %d already placed", connID)
	}
	if he.capacity > 0 && he.used >= he.capacity {
		c.admissionRejects++
		return fmt.Errorf("controlplane: host %d at capacity (%d)", host, he.capacity)
	}
	he.used++
	c.place[connID] = &placement{owner: host, epoch: 1}
	c.sessionsPlaced++
	c.leaseEpochs++
	return nil
}

// release drops a session that ended on host from the placement view and
// returns its admission slot. Only the lease holder's copy counts: the
// transfer peer's end of the connection, and the source copy retired after a
// migration flipped the lease, end without touching the placement.
func (c *Controller) release(connID uint32, host netapi.HostID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl := c.place[connID]
	if pl == nil || pl.owner != host {
		return
	}
	if he := c.hosts[host]; he != nil && he.used > 0 {
		he.used--
	}
	delete(c.place, connID)
}

// Owner returns the current lease: owning host and epoch.
func (c *Controller) Owner(connID uint32) (netapi.HostID, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl := c.place[connID]
	if pl == nil {
		return 0, 0, false
	}
	return pl.owner, pl.epoch, true
}

// Migrate moves a session's ownership from its current host to target: it
// admits the session against the target's budget, grants the next lease
// epoch, and directs the source agent to freeze, export, and transfer the
// session. The handoff itself is asynchronous — completion flips the routing
// view and retires the source copy; failure rolls the source back to live.
//
// Must be invoked on the provider's event loop (Post/Wait in the live
// harness), like every other datapath entry point.
func (c *Controller) Migrate(connID uint32, target netapi.HostID) error {
	c.mu.Lock()
	pl := c.place[connID]
	if pl == nil {
		c.mu.Unlock()
		return fmt.Errorf("controlplane: conn %d not placed", connID)
	}
	if pl.migrating {
		c.mu.Unlock()
		return fmt.Errorf("controlplane: conn %d already migrating", connID)
	}
	if pl.owner == target {
		c.mu.Unlock()
		return fmt.Errorf("controlplane: conn %d already on host %d", connID, target)
	}
	src := c.hosts[pl.owner]
	dst := c.hosts[target]
	if src == nil || src.agent == nil {
		c.mu.Unlock()
		return fmt.Errorf("controlplane: source host %d has no agent", pl.owner)
	}
	if dst == nil || dst.agent == nil {
		c.mu.Unlock()
		return fmt.Errorf("controlplane: target host %d not enrolled", target)
	}
	if dst.capacity > 0 && dst.used >= dst.capacity {
		c.admissionRejects++
		c.mu.Unlock()
		return fmt.Errorf("controlplane: host %d at capacity (%d)", target, dst.capacity)
	}
	epoch := pl.epoch + 1
	pl.migrating = true
	pl.target = target
	pl.targetEpoch = epoch
	c.leaseEpochs++
	srcAgent := src.agent
	dstAddr := dst.agent.stack.LocalAddr()
	c.mu.Unlock()

	if err := srcAgent.beginHandoff(connID, epoch, dstAddr); err != nil {
		c.mu.Lock()
		pl.migrating = false
		c.migrationsFailed++
		c.mu.Unlock()
		return err
	}
	return nil
}

// completeMigration is called by the target agent once the peer's channel
// acknowledged the routing flip and the adopted session resumed egress: the
// placement view flips atomically and the source copy is retired.
func (c *Controller) completeMigration(connID uint32, target netapi.HostID, epoch uint64) {
	c.mu.Lock()
	pl := c.place[connID]
	if pl == nil || !pl.migrating || pl.targetEpoch != epoch || pl.target != target {
		c.mu.Unlock()
		return
	}
	oldOwner := pl.owner
	pl.owner = target
	pl.epoch = epoch
	pl.migrating = false
	if he := c.hosts[oldOwner]; he != nil && he.used > 0 {
		he.used--
	}
	if he := c.hosts[target]; he != nil {
		he.used++
	}
	c.migrations++
	srcAgent := c.hosts[oldOwner].agent
	c.mu.Unlock()

	if srcAgent != nil {
		srcAgent.retireSource(connID)
	}
	if c.OnMigrationDone != nil {
		c.OnMigrationDone(connID, target, epoch)
	}
}

// failMigration is called by either agent when the handoff cannot complete
// (the channel gave up on a chunk or on the ownership update, or the target
// could not take the record): the lease stays with the source, which resumes
// egress — the transfer continues uninterrupted on the old placement.
func (c *Controller) failMigration(connID uint32, epoch uint64) {
	c.mu.Lock()
	pl := c.place[connID]
	if pl == nil || !pl.migrating || pl.targetEpoch != epoch {
		c.mu.Unlock()
		return
	}
	pl.migrating = false
	c.migrationsFailed++
	srcAgent := c.hosts[pl.owner].agent
	c.mu.Unlock()

	if srcAgent != nil {
		srcAgent.abortHandoff(connID)
	}
	if c.OnMigrationFailed != nil {
		c.OnMigrationFailed(connID, epoch)
	}
}

// count bumps one of the controller's counters from an agent.
func (c *Controller) count(ctr *uint64) {
	c.mu.Lock()
	*ctr++
	c.mu.Unlock()
}

// MetricCounters exposes the controller's counters in the observability
// plane's pull format; they render as adaptive_ctl_* on /metrics.
func (c *Controller) MetricCounters() map[string]func() uint64 {
	get := func(p *uint64) func() uint64 {
		return func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return *p
		}
	}
	return map[string]func() uint64{
		"ctl.sessions_placed":   get(&c.sessionsPlaced),
		"ctl.migrations":        get(&c.migrations),
		"ctl.migrations_failed": get(&c.migrationsFailed),
		"ctl.admission_rejects": get(&c.admissionRejects),
		"ctl.lease_epochs":      get(&c.leaseEpochs),
		"ctl.handoffs_refused":  get(&c.handoffsRefused),
		"ctl.handoffs_expired":  get(&c.handoffsExpired),
	}
}

// HostStatus is one host's view in a Status snapshot.
type HostStatus struct {
	Host     netapi.HostID
	Capacity int
	Sessions int    // placed on the host, by the controller's view
	Live     uint64 // in the host stack's demux table now (placed or not)
	Retired  uint64 // sessions the host has seen through their terminal transition
}

// PlacementStatus is one session's lease in a Status snapshot.
type PlacementStatus struct {
	ConnID    uint32
	Owner     netapi.HostID
	Epoch     uint64
	Migrating bool
	Target    netapi.HostID
}

// Status is a point-in-time controller snapshot (adaptivectl, host planes).
type Status struct {
	Hosts            []HostStatus
	Placements       []PlacementStatus
	SessionsPlaced   uint64
	Migrations       uint64
	MigrationsFailed uint64
	AdmissionRejects uint64
	LeaseEpochs      uint64
}

// Status snapshots the placement/routing view.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		SessionsPlaced:   c.sessionsPlaced,
		Migrations:       c.migrations,
		MigrationsFailed: c.migrationsFailed,
		AdmissionRejects: c.admissionRejects,
		LeaseEpochs:      c.leaseEpochs,
	}
	for h, he := range c.hosts {
		lifecycle := he.agent.stack.MetricCounters() // atomics: readable off the event loop
		st.Hosts = append(st.Hosts, HostStatus{Host: h, Capacity: he.capacity, Sessions: he.used,
			Live: lifecycle["sessions.live"](), Retired: lifecycle["sessions.retired"]()})
	}
	for id, pl := range c.place {
		st.Placements = append(st.Placements, PlacementStatus{
			ConnID: id, Owner: pl.owner, Epoch: pl.epoch,
			Migrating: pl.migrating, Target: pl.target,
		})
	}
	slices.SortFunc(st.Hosts, func(a, b HostStatus) int { return cmp.Compare(a.Host, b.Host) })
	slices.SortFunc(st.Placements, func(a, b PlacementStatus) int { return cmp.Compare(a.ConnID, b.ConnID) })
	return st
}
