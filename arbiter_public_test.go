package adaptive_test

import (
	"context"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// TestArbiterGovernsMixedSessions is the end-to-end loop for the host
// bandwidth arbiter at the public API: two sessions of different Table-1
// classes share one constrained link; the arbiter must register both, seed
// its estimate from the path descriptor, deliver grants through
// OnBudgetChange, keep the isochronous session at its full demand, and
// release a closed session's budget back to the pool.
func TestArbiterGovernsMixedSessions(t *testing.T) {
	k := sim.NewKernel(3)
	k.SetEventLimit(50_000_000)
	net := netsim.New(k)
	ha, hb := net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 8e6, PropDelay: 2 * time.Millisecond, MTU: 1500, QueueLen: 64 * 1500}
	ab, ba := net.NewLink(link), net.NewLink(link)
	net.SetRoute(ha.ID(), hb.ID(), ab)
	net.SetRoute(hb.ID(), ha.ID(), ba)

	na, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(ha.ID()),
		adaptive.WithSeed(1), adaptive.WithName("a"),
		adaptive.WithArbiter(adaptive.DefaultArbiterPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()),
		adaptive.WithSeed(2), adaptive.WithName("b"))
	if err != nil {
		t.Fatal(err)
	}
	na.SeedPath(hb.ID(), adaptive.StaticPathInfo{Bandwidth: 8e6, RTT: 4 * time.Millisecond, MTU: 1500})

	nb.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) {})
	})

	// Voice: interactive isochronous, 2 Mbps appetite.
	voice, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps: 2e6, PeakThroughputBps: 2e6,
			MaxLatency: 100 * time.Millisecond, MaxJitter: 20 * time.Millisecond,
			LossTolerance: 0.02,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bulk: non-real-time, insatiable.
	bulk, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 20e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var voiceBudget, bulkBudget float64
	if err := voice.OnBudgetChange(func(bps float64) { voiceBudget = bps }); err != nil {
		t.Fatal(err)
	}
	if err := bulk.OnBudgetChange(func(bps float64) { bulkBudget = bps }); err != nil {
		t.Fatal(err)
	}

	// Keep both sessions busy so samplers report real traffic.
	payload := make([]byte, 32*1024)
	for i := 0; i < 8; i++ {
		if err := voice.Send(payload); err != nil {
			t.Fatal(err)
		}
		if err := bulk.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(2 * time.Second)

	st := na.ArbiterStatus()
	if !st.Enabled {
		t.Fatal("arbiter not enabled despite WithArbiter")
	}
	if st.Sessions != 2 {
		t.Fatalf("arbiter sessions = %d, want 2", st.Sessions)
	}
	if st.Grants == 0 {
		t.Fatal("arbiter issued no grants")
	}
	if st.CapacityBps <= 0 {
		t.Fatal("arbiter has no capacity estimate")
	}
	if voiceBudget < 2e6*0.95 {
		t.Fatalf("isochronous budget %v, want its full 2e6 demand", voiceBudget)
	}
	if bulkBudget <= 0 {
		t.Fatalf("bulk budget %v, want positive", bulkBudget)
	}
	// The bulk session's appetite exceeds the link; its pacer must be
	// governed below demand (the squeeze the TSA metric exposes). The
	// estimate itself may probe up to twice the seeded capacity while the
	// light traffic here shows no congestion — convergence to the true
	// bottleneck under sustained load is E13's job.
	if bulkBudget >= 20e6 {
		t.Fatalf("bulk budget %v not squeezed below its 20e6 demand", bulkBudget)
	}
	if bulkBudget > 16e6 {
		t.Fatalf("bulk budget %v exceeds the 2x-seed estimate ceiling", bulkBudget)
	}

	// Demand release: the bulk transfer declares a smaller appetite and the
	// arbiter accepts it without error.
	if err := bulk.SetBandwidthDemand(1e6); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(k.Now() + time.Second)

	// A closed session leaves the arbitration pool.
	if err := voice.Close(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(k.Now() + 2*time.Second)
	if got := na.ArbiterStatus().Sessions; got != 1 {
		t.Fatalf("arbiter sessions = %d after close, want 1", got)
	}

	// Status on an arbiter-less node is inert.
	if nb.ArbiterStatus().Enabled {
		t.Fatal("node without WithArbiter reports an enabled arbiter")
	}
}

// TestNodeCloseCancelsTimers: Close must leave nothing of the node running —
// not its own periodic timers (the arbiter's congestion-hint poller, a probing
// campaign bounded only by context.Background), not its sessions — a dialled
// one, an accepted one, one still establishing and both ends of a multicast
// one all go through the terminal transition abortively, transmitting nothing
// — and not its out-of-band channels, though a reconfiguration and a hand-off
// are still unacknowledged on them.
func TestNodeCloseCancelsTimers(t *testing.T) {
	k := sim.NewKernel(5)
	net := netsim.New(k)
	ha, hb, hc := net.AddHost(), net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 8e6, PropDelay: 2 * time.Millisecond, MTU: 1500}
	for _, pair := range [][2]adaptive.HostID{{ha.ID(), hb.ID()}, {hb.ID(), ha.ID()}, {ha.ID(), hc.ID()}, {hc.ID(), ha.ID()}} {
		net.SetRoute(pair[0], pair[1], net.NewLink(link))
	}
	group := net.NewGroup()
	net.Join(group, hb.ID())

	// The impairment shim has a drop counter, which is what arms the poller.
	prov := impair.Wrap(net, impair.Config{Seed: 5, Loss: 0.01})
	n, err := adaptive.NewNode(adaptive.WithProvider(prov), adaptive.WithHost(ha.ID()),
		adaptive.WithArbiter(adaptive.DefaultArbiterPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	peer, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()), adaptive.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	target, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hc.ID()), adaptive.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cp := adaptive.NewControlPlane()
	for _, node := range []*adaptive.Node{n, target} {
		if err := cp.Enroll(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	n.ProbeContext(context.Background(), hb.ID(), 50*time.Millisecond)

	var conns []*adaptive.Conn
	keep := func(c *adaptive.Conn) { conns = append(conns, c) }
	peer.Listen(80, nil, keep)
	peer.OnMulticastJoin(func(c *adaptive.Conn, _ adaptive.HostID) { keep(c) })
	ended := map[adaptive.NotificationKind]int{}
	n.Subscribe(func(_ uint32, note adaptive.Notification) { ended[note.Kind]++ })
	var dialled []*adaptive.Conn
	for _, acd := range []*adaptive.ACD{
		{Participants: []adaptive.Addr{peer.Addr()}, RemotePort: 80, Qual: adaptive.QualQoS{Ordered: true}},
		{Participants: []adaptive.Addr{peer.Addr()}, RemotePort: 81, Qual: adaptive.QualQoS{Ordered: true}}, // nobody listens
		{Participants: []adaptive.Addr{{Host: group, Port: n.Addr().Port}, peer.Addr()}, RemotePort: 90,
			Quant: adaptive.QuantQoS{AvgThroughputBps: 1e6, LossTolerance: 0.05, MaxJitter: 10 * time.Millisecond}},
	} {
		c, err := n.Dial(acd, &adaptive.DialOptions{Keepalive: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		keep(c)
		dialled = append(dialled, c)
	}
	k.RunFor(time.Second)
	if got := len(n.Stack().Sessions()) + len(peer.Stack().Sessions()); got != 5 {
		t.Fatalf("%d sessions before Close, want 5 (3 dialled, 1 accepted, 1 joined): the test lost its subject", got)
	}
	// Still unacknowledged when Close runs: a reconfiguration of the
	// multicast session toward its member, and the hand-off record of the
	// first session toward the third host.
	if err := dialled[2].Reconfigure(func(s *adaptive.Spec) { s.RateBps /= 2 }); err != nil {
		t.Fatal(err)
	}
	if err := cp.Place(dialled[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.MigrateSession(dialled[0], hc.ID()); err != nil {
		t.Fatal(err)
	}
	if st := n.Stack().Stats(); st.DocPeers != 3 {
		t.Fatalf("%d out-of-band channels before Close, want 3 (to and from the member, to the target): the test lost its subject", st.DocPeers)
	}

	timers := n.Stack().Timers()
	before := timers.Stats()
	if before.Expired == 0 {
		t.Fatal("no timer fired before Close: the test lost its subject")
	}
	// From here on the only thing either stack may emit is the echo of a probe
	// that was already in flight (a closed node's endpoint stays bound).
	var sent sessionPDUs
	n.Stack().InsertLayer(&sent)
	peer.Stack().InsertLayer(&sent)
	for _, node := range []*adaptive.Node{n, peer} {
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		if st := node.Stack().Timers().Stats(); st.Pending != 0 {
			t.Fatalf("%d events pending on a closed node's timer manager", st.Pending)
		}
		if left := len(node.Stack().Sessions()); left != 0 {
			t.Fatalf("%d sessions outlived Node.Close", left)
		}
		if left := node.Stack().Stats().DocPeers; left != 0 {
			t.Fatalf("%d out-of-band channels outlived Node.Close", left)
		}
	}
	closed := timers.Stats()
	if got := closed.Canceled - before.Canceled; got < 2 {
		t.Fatalf("Close canceled %d timers, want at least the hint poller and the probe campaign", got)
	}
	for i, c := range conns {
		if !c.Closed() {
			t.Fatalf("conn %d (%#x) not closed by Node.Close", i, c.ConnID())
		}
	}
	if ended[adaptive.NoteClosed] != 2 || ended[adaptive.NoteEstablishFailed] != 1 {
		t.Fatalf("owners heard %v, want 2 NoteClosed and 1 NoteEstablishFailed", ended)
	}
	k.RunFor(time.Second)
	if after := timers.Stats(); after.Expired != closed.Expired {
		t.Fatalf("%d timers fired after Close", after.Expired-closed.Expired)
	}
	if sent != 0 {
		t.Fatalf("closing the nodes transmitted %d session PDUs", sent)
	}
}

// sessionPDUs is a pass-through layer counting every departing PDU but probes.
type sessionPDUs int

func (c *sessionPDUs) Name() string { return "session-pdus" }
func (c *sessionPDUs) Outbound(pkt []byte, _ adaptive.Addr) ([]byte, bool) {
	if wire.Type(pkt[0]&0x0f) != wire.TProbe {
		*c++
	}
	return pkt, true
}
func (c *sessionPDUs) Inbound(pkt []byte, _ adaptive.Addr) ([]byte, bool) { return pkt, true }
