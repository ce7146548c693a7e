package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
)

// This file is the live harness: it runs one scenario — phased bulk transfer
// with optional mid-stream reconfigurations and optional network impairment —
// over both network providers and lets tests assert the two environments
// deliver byte-identical streams. The scenario is phrased in terms of
// delivery progress (send N bytes, wait until the receiver has them) rather
// than timestamps, so the identical steps drive the virtual-time simulator
// and wall-clock UDP loopback.

// LivePhase is one stage of a live scenario: an optional spec mutation
// (negotiated with the peer, applied by segue) followed by Bytes of payload.
type LivePhase struct {
	Label string
	Bytes int
	// Mutate, when non-nil, reconfigures the connection before this
	// phase's data is queued (e.g. switch recovery strategies mid-stream).
	Mutate func(s *adaptive.Spec)
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
	// PhaseTimeout caps establishment and each phase on the environment's
	// own clock — virtual time on the simulator, wall time live (default 30s).
	PhaseTimeout time.Duration
	// BatchSize and FlushWindow configure the live provider's batched
	// datapath (udpnet.Config). The zero values keep receive batching at
	// the provider default and sends per-packet — the A/B baseline; the
	// parity tests run the same scenario both ways and require
	// byte-identical delivery.
	BatchSize   int
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

func (sc *LiveScenario) acd(peer netapi.Addr) *mantts.ACD {
	return &mantts.ACD{
		Participants: []netapi.Addr{peer},
		RemotePort:   80,
		Quant:        mantts.QuantQoS{AvgThroughputBps: 20e6},
		Qual:         mantts.QualQoS{Ordered: true},
	}
}

// LiveRun is the outcome of one environment's execution of a scenario.
type LiveRun struct {
	Delivered   []byte
	Stats       adaptive.Stats
	Impairments impair.Counters
}

// RunSim executes the scenario on the deterministic simulator.
func (sc *LiveScenario) RunSim() (*LiveRun, error) {
	w := rig.NewSim(sc.Seed, 2)
	w.Mesh(netsim.LinkConfig{Bandwidth: 50e6, PropDelay: 2 * time.Millisecond, MTU: 1500, QueueLen: 64000})
	return sc.run(w)
}

// RunLive executes the scenario over UDP loopback sockets and the wall clock.
func (sc *LiveScenario) RunLive() (*LiveRun, error) {
	return sc.run(rig.NewLive(2, sc.BatchSize, sc.FlushWindow))
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

// run is the scenario script: dial, then per phase reconfigure, queue the
// phase's payload, and wait until the receiver has all of it.
func (sc *LiveScenario) run(e *rig.World) (*LiveRun, error) {
	defer e.Close()
	e.Impair(sc.Impair)
	tag := sc.Name + "/" + e.Name
	na, err := scriptNode(e, 0, sc.Seed)
	if err != nil {
		return nil, err
	}
	nb, err := scriptNode(e, 1, sc.Seed+1)
	if err != nil {
		return nil, err
	}

	var delivered []byte
	if err := e.Listen(nb, 80, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, _ bool) { delivered = append(delivered, data...) })
	}); err != nil {
		return nil, err
	}
	conn, err := e.Dial(na, sc.acd(nb.Addr()), &adaptive.DialOptions{LocalPort: 1000}, sc.phaseTimeout())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}

	src := sc.Payload()
	off := 0
	for _, ph := range sc.Phases {
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
		off = end
		got := 0
		if !e.Until(5*time.Millisecond, sc.phaseTimeout(), func() bool {
			got = len(delivered)
			return got >= end
		}) {
			return nil, fmt.Errorf("%s: phase %q stalled at %d of %d bytes", tag, ph.Label, got, end)
		}
	}
	run := &LiveRun{}
	e.Do(func() { run.Delivered, run.Stats = delivered, conn.Stats() })
	if e.Imp != nil {
		run.Impairments = e.Imp.Counters()
	}
	return run, nil
}
