package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/wire"
)

// This file is the two-environment harness: it runs one scenario — phased
// bulk transfer with optional mid-stream reconfigurations, cross-host
// migrations and network impairment — over both network providers and lets
// tests assert the two environments deliver byte-identical streams. The
// scenario is phrased in terms of delivery progress (send N bytes, wait until
// the receiver has them) rather than timestamps, so the identical steps drive
// the virtual-time simulator and wall-clock UDP loopback.
//
// Hosts: 0 dials, 1..k are migration targets, the last host receives on port
// 80; host i's node is seeded Seed+i.

// LivePhase is one stage of a live scenario: an optional migration, an
// optional spec mutation (negotiated with the peer, applied by segue), then
// Bytes of payload.
type LivePhase struct {
	Label string
	Bytes int
	// Mutate, when non-nil, reconfigures the connection before this
	// phase's data is queued (e.g. switch recovery strategies mid-stream).
	Mutate func(s *adaptive.Spec)
	// Await, when positive, ends the phase once the receiver holds Await of
	// its bytes instead of all of them.
	Await int
	// MigrateTo, when positive, moves the session to that host through the
	// control plane before anything else in the phase; the adopted
	// connection sends the phase's data. Once the phase is delivered, the old
	// owner replays a stale-epoch PDU and the run waits for the peer to
	// fence it.
	MigrateTo int
}

// LiveScenario describes a parity experiment between the simulator and the
// UDP provider.
type LiveScenario struct {
	Name   string
	Seed   int64
	Phases []LivePhase
	// Impair, when active, wraps BOTH providers with the same seeded
	// impairment shim, so the lossy scenario needs no netem on the live
	// side and no special link on the sim side.
	Impair impair.Config
	// PhaseTimeout caps establishment and each wait on the environment's
	// own clock — virtual time on the simulator, wall time live (default 30s).
	PhaseTimeout time.Duration
	// FlushWindow configures the live provider's batched datapath
	// (udpnet.Config). Zero keeps sends per-packet — the A/B baseline; the
	// parity tests run the same scenario both ways and require
	// byte-identical delivery.
	FlushWindow time.Duration
}

// TotalBytes is the whole scenario's payload size.
func (sc *LiveScenario) TotalBytes() int {
	n := 0
	for _, ph := range sc.Phases {
		n += ph.Bytes
	}
	return n
}

// Payload generates the deterministic source stream both runs transmit.
func (sc *LiveScenario) Payload() []byte {
	buf := make([]byte, sc.TotalBytes())
	rand.New(rand.NewSource(sc.Seed ^ 0x5eed)).Read(buf)
	return buf
}

func (sc *LiveScenario) phaseTimeout() time.Duration {
	if sc.PhaseTimeout > 0 {
		return sc.PhaseTimeout
	}
	return 30 * time.Second
}

// hosts is the world size: the dialer, every migration target, the receiver.
func (sc *LiveScenario) hosts() int {
	n := 2
	for _, ph := range sc.Phases {
		n = max(n, ph.MigrateTo+2)
	}
	return n
}

// migrations counts the phases that migrate the session.
func (sc *LiveScenario) migrations() int {
	n := 0
	for _, ph := range sc.Phases {
		if ph.MigrateTo > 0 {
			n++
		}
	}
	return n
}

// LiveRun is the outcome of one environment's execution of a scenario.
type LiveRun struct {
	Delivered   []byte
	Stats       adaptive.Stats // the connection that sent last, end of run
	Impairments impair.Counters
	Status      adaptive.ControlStatus
	// FencedPDUs is the receiver stack's rejected-stale-owner count after
	// the post-migration replays (the fence proof of a migrating run).
	FencedPDUs uint64
	// MigrationTime is how long the last hand-off took on the environment's
	// clock: MigrateSession call to Migration.Done.
	MigrationTime time.Duration
}

// RunSim executes the scenario on the deterministic simulator.
func (sc *LiveScenario) RunSim() (*LiveRun, error) {
	w := rig.NewSim(sc.Seed, sc.hosts())
	w.Mesh(netsim.LinkConfig{Bandwidth: 20e6, PropDelay: 2 * time.Millisecond, MTU: 1500, QueueLen: 64000})
	return sc.run(w)
}

// RunLive executes the scenario over UDP loopback sockets and the wall clock:
// every host in-process on one provider.
func (sc *LiveScenario) RunLive() (*LiveRun, error) {
	return sc.run(rig.NewLive(sc.hosts(), sc.FlushWindow))
}

// Check gates one run: the receiver holds exactly the source payload, every
// scripted migration completed and none failed, and the peer fenced each
// stale owner's replay.
func (sc *LiveScenario) Check(run *LiveRun) error {
	if !bytes.Equal(run.Delivered, sc.Payload()) {
		return fmt.Errorf("%s: delivered stream diverges from source (%d of %d bytes)",
			sc.Name, len(run.Delivered), sc.TotalBytes())
	}
	if want := sc.migrations(); run.Status.Migrations != uint64(want) || run.Status.MigrationsFailed != 0 {
		return fmt.Errorf("%s: migrations=%d failed=%d, want %d/0",
			sc.Name, run.Status.Migrations, run.Status.MigrationsFailed, want)
	}
	if run.FencedPDUs < uint64(sc.migrations()) {
		return fmt.Errorf("%s: stale-epoch replay was not fenced", sc.Name)
	}
	return nil
}

// scriptNode brings up host i of a two-environment script: the node is named
// after the environment so a shared repository keeps the runs apart.
func scriptNode(w *rig.World, i int, seed int64, extra ...adaptive.Option) (*adaptive.Node, error) {
	return w.Node(i, seed, fmt.Sprintf("%s-%d", w.Name, i), extra...)
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

// staleReplay transmits a data PDU for a migrated connection from its old
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

// run is the scenario script: dial, then per phase migrate, reconfigure,
// queue the phase's payload, and wait until the receiver has it.
func (sc *LiveScenario) run(e *rig.World) (*LiveRun, error) {
	defer e.Close()
	e.Impair(sc.Impair)
	tag := sc.Name + "/" + e.Name
	limit := sc.phaseTimeout()
	cp := adaptive.NewControlPlane()
	for i := range e.Hosts {
		n, err := scriptNode(e, i, sc.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := cp.Enroll(n, 0); err != nil {
			return nil, err
		}
	}
	peer := e.Nodes[len(e.Nodes)-1]

	var delivered []byte
	if err := e.Listen(peer, 80, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, _ bool) { delivered = append(delivered, data...) })
	}); err != nil {
		return nil, err
	}
	conn, err := e.Dial(e.Nodes[0], &adaptive.ACD{
		Participants: []adaptive.Addr{peer.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 10e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, &adaptive.DialOptions{LocalPort: 1000}, limit)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	e.Do(func() { err = cp.Place(conn) })
	if err != nil {
		return nil, err
	}

	run := &LiveRun{}
	owner := 0
	src := sc.Payload()
	off := 0
	for _, ph := range sc.Phases {
		stale := conn
		if ph.MigrateTo > 0 {
			if conn, err = migrate(e, cp, conn, ph.MigrateTo, limit, run); err != nil {
				return nil, fmt.Errorf("%s: phase %q: %w", tag, ph.Label, err)
			}
		}
		end := off + ph.Bytes
		e.Do(func() {
			if ph.Mutate != nil {
				if err = conn.Reconfigure(ph.Mutate); err != nil {
					err = fmt.Errorf("reconfigure: %w", err)
					return
				}
			}
			err = sendChunked(conn, src[off:end])
		})
		if err != nil {
			return nil, fmt.Errorf("%s: phase %q: %w", tag, ph.Label, err)
		}
		target := end
		if ph.Await > 0 {
			target = off + ph.Await
		}
		off = end
		got := 0
		if !e.Until(time.Millisecond, limit, func() bool {
			got = len(delivered)
			return got >= target
		}) {
			return nil, fmt.Errorf("%s: phase %q stalled at %d of %d bytes", tag, ph.Label, got, target)
		}
		if ph.MigrateTo > 0 {
			fenced := run.FencedPDUs
			e.Do(func() { err = staleReplay(e.Nodes[owner], peer.Addr(), stale.ConnID(), stale.LocalPort()) })
			if err != nil {
				return nil, fmt.Errorf("%s: phase %q: %w", tag, ph.Label, err)
			}
			// A fence miss leaves FencedPDUs short; Check reports it.
			e.Until(time.Millisecond, limit, func() bool {
				run.FencedPDUs = peer.Stack().Stats().FencedPDUs
				return run.FencedPDUs > fenced
			})
			owner = ph.MigrateTo
		}
	}
	e.Do(func() { run.Delivered, run.Stats, run.Status = delivered, conn.Stats(), cp.Status() })
	if e.Imp != nil {
		run.Impairments = e.Imp.Counters()
	}
	return run, nil
}

// migrate hands conn over to host to and waits for the adopted connection,
// recording the hand-off time in run.
func migrate(e *rig.World, cp *adaptive.ControlPlane, conn *adaptive.Conn, to int, limit time.Duration, run *LiveRun) (*adaptive.Conn, error) {
	start := e.Now()
	var m *adaptive.Migration
	var err error
	e.Do(func() { m, err = cp.MigrateSession(conn, e.Nodes[to].Addr().Host) })
	if err != nil {
		return nil, err
	}
	if !e.Until(time.Millisecond, limit, func() bool {
		select {
		case <-m.Done():
			return true
		default:
			return false
		}
	}) {
		return nil, fmt.Errorf("migration stalled")
	}
	if m.Err() != nil {
		return nil, m.Err()
	}
	run.MigrationTime = e.Now() - start
	if m.Conn() == nil {
		return nil, fmt.Errorf("migration returned no adopted conn")
	}
	return m.Conn(), nil
}
