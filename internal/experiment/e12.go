package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"adaptive"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/wire"
)

// E12 — cross-host session migration (the fleet-scale segue).
//
// The paper's segue (§4.2) renegotiates a session's mechanism configuration
// in place; E12 lifts the same freeze/transfer/resume discipline across
// hosts. A three-host deployment — source A, target B, transfer peer P —
// runs a phased bulk transfer from A to P; mid-stream the control plane
// migrates the session to B, whose adopted copy finishes the stream. The
// acceptance gate requires
//
//   - zero app-stream divergence: P's delivered bytes are exactly the
//     source payload, across the migration boundary, in both the simulated
//     and the live (UDP loopback) environment;
//   - epoch fencing: after the routing flip a stale-epoch data PDU replayed
//     from A is rejected at P's stack (counted, never delivered);
//   - determinism: same-seed sim runs deliver byte-identical streams (the
//     golden table pins the delivered length, the exact-payload gate and the
//     virtual migration time).

// E12Scenario parameterizes one migration run.
type E12Scenario struct {
	Name string
	Seed int64
	// Phase1 is sent from the source host before MigrateSession; Phase2
	// from the adopted connection on the target (defaults 256 KiB each).
	Phase1, Phase2 int
}

func (sc *E12Scenario) phase1() int {
	if sc.Phase1 > 0 {
		return sc.Phase1
	}
	return 256 << 10
}

func (sc *E12Scenario) phase2() int {
	if sc.Phase2 > 0 {
		return sc.Phase2
	}
	return 256 << 10
}

// Payload generates the deterministic source stream both runs transmit.
func (sc *E12Scenario) Payload() []byte {
	buf := make([]byte, sc.phase1()+sc.phase2())
	rand.New(rand.NewSource(sc.Seed ^ 0x5e90e)).Read(buf)
	return buf
}

// e12Timeout caps each wait of the script on the environment's own clock
// (virtual time on the simulator, wall time live).
const e12Timeout = 30 * time.Second

// E12Run is the outcome of one environment's execution.
type E12Run struct {
	Delivered []byte
	// FencedPDUs is the peer stack's rejected-stale-owner count after the
	// post-migration replay (the fence proof; must be > 0).
	FencedPDUs uint64
	Status     adaptive.ControlStatus
	Stats      adaptive.Stats // adopted connection, end of run
	// MigrationTime is how long the handoff took (virtual time in sim,
	// wall time live): MigrateSession call to Migration.Done.
	MigrationTime time.Duration
}

// staleReplay transmits a data PDU for the migrated connection from the old
// owner's stack — a stale-epoch sender the peer must fence. Must run where
// protocol code runs (World.Do). The sequence is long-acknowledged, so even a
// fence miss could not corrupt the stream; the gate is the rejection counter.
func staleReplay(src *adaptive.Node, peer netapi.Addr, connID uint32, srcPort uint16) error {
	p := wire.GetPDU()
	p.Header = wire.Header{
		Type:    wire.TData,
		ConnID:  connID,
		SrcPort: srcPort,
		DstPort: 80,
		Seq:     1,
	}
	err := wire.EncodeTo(p, wire.CkCRC32, func(pkt []byte) error {
		return src.Stack().Transmit(pkt, peer)
	})
	wire.PutPDU(p)
	return err
}

// RunSim executes the scenario on the deterministic simulator.
func (sc *E12Scenario) RunSim() (*E12Run, error) {
	w := rig.NewSim(sc.Seed, 3)
	w.Mesh(netsim.LinkConfig{Bandwidth: 20e6, PropDelay: 2 * time.Millisecond, MTU: 1500, QueueLen: 64000})
	return sc.run(w)
}

// RunLive executes the scenario over UDP loopback sockets and the wall
// clock: three in-process hosts on one provider.
func (sc *E12Scenario) RunLive() (*E12Run, error) {
	return sc.run(rig.NewLive(3, 0))
}

// run is the scenario script. Hosts: 0 = source A, 1 = target B, 2 = peer P.
func (sc *E12Scenario) run(e *rig.World) (*E12Run, error) {
	defer e.Close()
	tag := sc.Name + "/" + e.Name
	var nodes [3]*adaptive.Node
	cp := adaptive.NewControlPlane()
	for i := range nodes {
		n, err := scriptNode(e, i, sc.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := cp.Enroll(n, 0); err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	na, nb, np := nodes[0], nodes[1], nodes[2]

	var delivered []byte
	if err := e.Listen(np, 80, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, _ bool) { delivered = append(delivered, data...) })
	}); err != nil {
		return nil, err
	}
	conn, err := e.Dial(na, &adaptive.ACD{
		Participants: []adaptive.Addr{np.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 10e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, &adaptive.DialOptions{LocalPort: 1000}, e12Timeout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	e.Do(func() { err = cp.Place(conn) })
	if err != nil {
		return nil, err
	}

	src := sc.Payload()
	send := func(c *adaptive.Conn, lo, hi int) error {
		var serr error
		e.Do(func() { serr = sendChunked(c, src[lo:hi]) })
		return serr
	}
	waitDelivered := func(step time.Duration, target int, what string) error {
		got := 0
		if !e.Until(step, e12Timeout, func() bool {
			got = len(delivered)
			return got >= target
		}) {
			return fmt.Errorf("%s: %s stalled at %d of %d bytes", tag, what, got, target)
		}
		return nil
	}
	if err := send(conn, 0, sc.phase1()); err != nil {
		return nil, fmt.Errorf("%s: phase1: %w", tag, err)
	}
	// Let roughly a quarter of phase 1 land so the handoff record carries
	// live state: queued segments, unacked PDUs, meters.
	if err := waitDelivered(time.Millisecond, sc.phase1()/4, "pre-migration"); err != nil {
		return nil, err
	}

	migrateAt := e.Now()
	var m *adaptive.Migration
	e.Do(func() { m, err = cp.MigrateSession(conn, nb.Addr().Host) })
	if err != nil {
		return nil, err
	}
	if !e.Until(time.Millisecond, e12Timeout, func() bool {
		select {
		case <-m.Done():
			return true
		default:
			return false
		}
	}) {
		return nil, fmt.Errorf("%s: migration stalled", tag)
	}
	if m.Err() != nil {
		return nil, fmt.Errorf("%s: %w", tag, m.Err())
	}
	run := &E12Run{MigrationTime: e.Now() - migrateAt}

	adopted := m.Conn()
	if adopted == nil {
		return nil, fmt.Errorf("%s: migration returned no adopted conn", tag)
	}
	if err := send(adopted, sc.phase1(), len(src)); err != nil {
		return nil, fmt.Errorf("%s: phase2: %w", tag, err)
	}
	if err := waitDelivered(5*time.Millisecond, len(src), "post-migration"); err != nil {
		return nil, err
	}

	e.Do(func() {
		err = staleReplay(na, np.Addr(), conn.ConnID(), conn.LocalPort())
	})
	if err != nil {
		return nil, err
	}
	// A fence miss leaves FencedPDUs zero; the caller's gate reports it.
	e.Until(time.Millisecond, e12Timeout, func() bool {
		run.FencedPDUs = np.Stack().Stats().FencedPDUs
		return run.FencedPDUs > 0
	})

	e.Do(func() {
		run.Delivered = delivered
		run.Status = cp.Status()
		run.Stats = adopted.Stats()
	})
	return run, nil
}

// Check gates one run against the scenario's acceptance criteria.
func (sc *E12Scenario) Check(run *E12Run) error {
	if !bytes.Equal(run.Delivered, sc.Payload()) {
		return fmt.Errorf("%s: delivered stream diverges from source (%d of %d bytes)",
			sc.Name, len(run.Delivered), sc.phase1()+sc.phase2())
	}
	if run.Status.Migrations != 1 || run.Status.MigrationsFailed != 0 {
		return fmt.Errorf("%s: migrations=%d failed=%d, want 1/0",
			sc.Name, run.Status.Migrations, run.Status.MigrationsFailed)
	}
	if run.FencedPDUs == 0 {
		return fmt.Errorf("%s: stale-epoch replay was not fenced", sc.Name)
	}
	return nil
}

// RunE12 regenerates the E12 artifact: the sim scenario's migration outcome.
func RunE12() []Table {
	sc := &E12Scenario{Name: "e12", Seed: 12}
	t := Table{
		ID:      "E12",
		Title:   "Cross-host session migration (fleet-scale segue)",
		Headers: []string{"run", "delivered", "migration", "fenced", "epochs", "status"},
	}
	run, err := sc.RunSim()
	if err == nil {
		err = sc.Check(run)
	}
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	row := []string{"sim#1", "-", "-", "-", "-", status}
	if run != nil {
		row[1] = fmt.Sprintf("%d B", len(run.Delivered))
		row[2] = fmtDur(run.MigrationTime)
		row[3] = fmt.Sprintf("%d", run.FencedPDUs)
		row[4] = fmt.Sprintf("%d", run.Status.LeaseEpochs)
	}
	t.Rows = append(t.Rows, row)
	return []Table{t}
}
