package adaptive

import (
	"errors"
	"fmt"
	"sync"

	"adaptive/internal/controlplane"
	"adaptive/internal/netapi"
	"adaptive/internal/session"
)

// ErrMigrated reports a Send on a connection whose session has been handed
// off to another host: the surviving copy lives on the migration target.
var ErrMigrated = session.ErrMigrated

// Control-plane status vocabulary (ControlPlane.Status).
type (
	// ControlStatus is a point-in-time controller snapshot.
	ControlStatus = controlplane.Status
	// ControlHostStatus is one enrolled host's budget and load.
	ControlHostStatus = controlplane.HostStatus
	// ControlPlacement is one session's lease (owner, epoch, in-flight
	// migration).
	ControlPlacement = controlplane.PlacementStatus
)

// ControlPlane is the deployment's controller: the placement/routing view
// (session → owning host), admission control against per-host capacity
// budgets, and the lease/epoch authority under which sessions migrate
// between hosts — the paper's segue operation lifted to fleet scale. One
// ControlPlane serves every Node enrolled in a deployment; the handoff
// records and ownership updates its agents exchange travel the provider
// wire (TControl PDUs), identically in sim and live.
//
// Every method that touches a live session (Place, MigrateSession) must run
// on the provider's event loop, like all other datapath entry points: call
// them directly under netsim, or inside Post/Wait under udpnet.
type ControlPlane struct {
	ctl *controlplane.Controller

	// OnAdopt, when set, fires on the migration target as soon as a session
	// is adopted — before its egress resumes. Install delivery callbacks on
	// the Conn here so no arriving data is lost. Runs on the provider loop.
	OnAdopt func(c *Conn)

	mu      sync.Mutex
	agents  map[HostID]*controlplane.Agent
	adopted map[uint32]*Conn      // conn handles built at adoption time
	pending map[uint32]*Migration // in-flight migrations by connID
}

// NewControlPlane creates a controller with no enrolled hosts.
func NewControlPlane() *ControlPlane {
	cp := &ControlPlane{
		ctl:     controlplane.NewController(),
		agents:  make(map[HostID]*controlplane.Agent),
		adopted: make(map[uint32]*Conn),
		pending: make(map[uint32]*Migration),
	}
	cp.ctl.OnMigrationDone = cp.migrationDone
	cp.ctl.OnMigrationFailed = cp.migrationFailed
	return cp
}

// Enroll registers a node with the controller under a capacity budget
// (sessions; <= 0 means unlimited), installs the control-plane message
// handler on the node's stack, and publishes the controller's adaptive_ctl_*
// counters on the node's observability plane so every host reports the
// deployment's lease state.
func (cp *ControlPlane) Enroll(n *Node, capacity int) error {
	host := n.Addr().Host
	cp.mu.Lock()
	if _, dup := cp.agents[host]; dup {
		cp.mu.Unlock()
		return fmt.Errorf("adaptive: host %v already enrolled", host)
	}
	cp.mu.Unlock()

	a := controlplane.NewAgent(cp.ctl, n.Stack(), capacity)
	a.OnAdopt = func(s *session.Session) {
		c := n.newConn(s, nil)
		cp.mu.Lock()
		cp.adopted[s.ConnID()] = c
		cp.mu.Unlock()
		if cp.OnAdopt != nil {
			cp.OnAdopt(c)
		}
	}
	cp.mu.Lock()
	cp.agents[host] = a
	cp.mu.Unlock()
	n.Observability().RegisterCounters(cp.ctl.MetricCounters())
	return nil
}

// Place admits an open connection into the placement view on its current
// host and grants the initial lease. Admission rejects (host over budget)
// are returned and counted. The placement and its slot in the budget are
// released when the session ends on the host that holds the lease.
func (cp *ControlPlane) Place(c *Conn) error {
	return cp.ctl.Place(c.ConnID(), c.node.Addr().Host)
}

// Owner returns a connection's current lease: owning host and epoch.
func (cp *ControlPlane) Owner(connID uint32) (HostID, uint64, bool) {
	return cp.ctl.Owner(connID)
}

// Status snapshots the controller's placement/routing view and counters.
func (cp *ControlPlane) Status() ControlStatus { return cp.ctl.Status() }

// Migration tracks one in-flight cross-host session migration.
type Migration struct {
	connID uint32
	done   chan struct{}

	mu   sync.Mutex
	conn *Conn
	err  error
}

// Done closes when the migration completes or fails; check Err and Conn.
func (m *Migration) Done() <-chan struct{} { return m.done }

// Err returns the terminal error (nil on success, after Done closes).
func (m *Migration) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Conn returns the adopted connection handle on the target host (nil until
// the migration completes, or on failure).
func (m *Migration) Conn() *Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.conn
}

// MigrateSession moves a live connection to the target host: the source
// freezes and exports the session, the epoch-stamped handoff record crosses
// the wire, the target adopts it, and the transfer peer's routing fences the
// old owner before the new one transmits a byte. The returned Migration
// completes asynchronously; on success its Conn is the surviving handle (the
// original one answers ErrMigrated), and on failure the source resumes with
// its state intact.
func (cp *ControlPlane) MigrateSession(c *Conn, target HostID) (*Migration, error) {
	connID := c.ConnID()
	m := &Migration{connID: connID, done: make(chan struct{})}
	cp.mu.Lock()
	if _, busy := cp.pending[connID]; busy {
		cp.mu.Unlock()
		return nil, fmt.Errorf("adaptive: conn %d already migrating", connID)
	}
	cp.pending[connID] = m
	cp.mu.Unlock()
	if err := cp.ctl.Migrate(connID, target); err != nil {
		cp.mu.Lock()
		delete(cp.pending, connID)
		cp.mu.Unlock()
		return nil, err
	}
	return m, nil
}

func (cp *ControlPlane) migrationDone(connID uint32, target netapi.HostID, epoch uint64) {
	cp.mu.Lock()
	m := cp.pending[connID]
	delete(cp.pending, connID)
	conn := cp.adopted[connID]
	delete(cp.adopted, connID)
	cp.mu.Unlock()
	if m == nil {
		return
	}
	m.mu.Lock()
	m.conn = conn
	m.mu.Unlock()
	close(m.done)
}

func (cp *ControlPlane) migrationFailed(connID uint32, epoch uint64) {
	cp.mu.Lock()
	m := cp.pending[connID]
	delete(cp.pending, connID)
	delete(cp.adopted, connID)
	cp.mu.Unlock()
	if m == nil {
		return
	}
	m.mu.Lock()
	m.err = errors.New("adaptive: migration failed; session resumed on source host")
	m.mu.Unlock()
	close(m.done)
}
