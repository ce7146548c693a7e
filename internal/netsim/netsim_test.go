package netsim

import (
	"testing"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/sim"
)

// twoHosts builds a-b connected by symmetric links with the given config and
// returns (network, hostA, hostB, linkAB, linkBA).
func twoHosts(t *testing.T, cfg LinkConfig) (*Network, *Host, *Host, *Link, *Link) {
	t.Helper()
	k := sim.NewKernel(42)
	n := New(k)
	a, b := n.AddHost(), n.AddHost()
	ab, ba := n.NewLink(cfg), n.NewLink(cfg)
	n.SetRoute(a.ID(), b.ID(), ab)
	n.SetRoute(b.ID(), a.ID(), ba)
	return n, a, b, ab, ba
}

func mbps(m float64) float64 { return m * 1e6 }

func TestUnicastDelivery(t *testing.T) {
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(10), PropDelay: time.Millisecond, MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var got []byte
	var from netapi.Addr
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { got = pkt; from = src })
	if err := epA.Send([]byte("ping"), epB.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	n.Kernel().Run()
	if string(got) != "ping" {
		t.Fatalf("delivered %q", got)
	}
	if from != epA.LocalAddr() {
		t.Fatalf("source addr %v, want %v", from, epA.LocalAddr())
	}
}

func TestDeliveryTiming(t *testing.T) {
	// 1000-byte packet at 8 Mbps = 1ms serialization + 5ms propagation.
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: 8e6, PropDelay: 5 * time.Millisecond, MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var at time.Duration
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { at = n.Kernel().Now() })
	epA.Send(make([]byte, 1000), epB.LocalAddr())
	n.Kernel().Run()
	want := 6 * time.Millisecond
	if at < want || at > want+time.Microsecond {
		t.Fatalf("arrival at %v, want ~%v", at, want)
	}
}

func TestSerializationQueuesBackToBack(t *testing.T) {
	// Two packets sent at t=0 arrive 1ms apart (serialization spacing).
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: 8e6, PropDelay: 0, MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var arrivals []time.Duration
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { arrivals = append(arrivals, n.Kernel().Now()) })
	epA.Send(make([]byte, 1000), epB.LocalAddr())
	epA.Send(make([]byte, 1000), epB.LocalAddr())
	n.Kernel().Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	if gap != time.Millisecond {
		t.Fatalf("serialization gap = %v, want 1ms", gap)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n, a, b, ab, _ := twoHosts(t, LinkConfig{Bandwidth: 8e6, PropDelay: 0, MTU: 1500, QueueLen: 2500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	count := 0
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { count++ })
	for i := 0; i < 10; i++ {
		epA.Send(make([]byte, 1000), epB.LocalAddr())
	}
	n.Kernel().Run()
	if ab.Stats().DropsQueue == 0 {
		t.Fatal("no congestion drops despite tiny queue")
	}
	if count+int(ab.Stats().DropsQueue) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", count, ab.Stats().DropsQueue)
	}
}

func TestMTUDrop(t *testing.T) {
	n, a, b, ab, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(10), MTU: 512})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	got := false
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { got = true })
	epA.Send(make([]byte, 1000), epB.LocalAddr())
	n.Kernel().Run()
	if got || ab.Stats().DropsMTU != 1 {
		t.Fatalf("oversized packet not dropped (got=%v stats=%+v)", got, ab.Stats())
	}
}

func TestBERCorruptsButDelivers(t *testing.T) {
	n, a, b, ab, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(10), MTU: 1500, BER: 1e-3})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	corrupted := 0
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) {
		for _, x := range pkt {
			if x != 0 {
				corrupted++
				break
			}
		}
	})
	for i := 0; i < 200; i++ {
		epA.Send(make([]byte, 500), epB.LocalAddr())
	}
	n.Kernel().Run()
	if corrupted == 0 || ab.Stats().Corrupted == 0 {
		t.Fatal("BER 1e-3 produced no corruption over 200 packets")
	}
	if uint64(corrupted) != ab.Stats().Corrupted {
		t.Fatalf("observed %d corrupt, link says %d", corrupted, ab.Stats().Corrupted)
	}
}

func TestDropRate(t *testing.T) {
	n, a, b, ab, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(100), MTU: 1500, DropRate: 0.5})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	count := 0
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { count++ })
	for i := 0; i < 1000; i++ {
		epA.Send([]byte("x"), epB.LocalAddr())
	}
	n.Kernel().Run()
	if count < 400 || count > 600 {
		t.Fatalf("delivered %d of 1000 at p=0.5", count)
	}
	if ab.Stats().DropsRandom != uint64(1000-count) {
		t.Fatalf("drop accounting: %d vs %d", ab.Stats().DropsRandom, 1000-count)
	}
}

func TestDuplication(t *testing.T) {
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(100), MTU: 1500, DupRate: 1.0})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	count := 0
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { count++ })
	epA.Send([]byte("x"), epB.LocalAddr())
	n.Kernel().Run()
	if count != 2 {
		t.Fatalf("DupRate=1 delivered %d copies", count)
	}
}

func TestMulticastFanout(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	src := n.AddHost()
	var members []*Host
	group := n.NewGroup()
	received := make(map[netapi.HostID]int)
	for i := 0; i < 3; i++ {
		m := n.AddHost()
		members = append(members, m)
		l := n.NewLink(LinkConfig{Bandwidth: mbps(10), MTU: 1500})
		n.SetRoute(src.ID(), m.ID(), l)
		n.Join(group, m.ID())
		ep, _ := n.Open(m.ID(), 5)
		id := m.ID()
		ep.SetReceiver(func(pkt []byte, from netapi.Addr) { received[id]++ })
	}
	epS, _ := n.Open(src.ID(), 1)
	epS.Send([]byte("mc"), netapi.Addr{Host: group, Port: 5})
	k.Run()
	for _, m := range members {
		if received[m.ID()] != 1 {
			t.Fatalf("member %v received %d", m.ID(), received[m.ID()])
		}
	}
	// Leave and resend: departed member hears nothing new.
	n.Leave(group, members[0].ID())
	epS.Send([]byte("mc2"), netapi.Addr{Host: group, Port: 5})
	k.Run()
	if received[members[0].ID()] != 1 {
		t.Fatal("departed member still receiving")
	}
	if received[members[1].ID()] != 2 {
		t.Fatal("remaining member missed post-leave send")
	}
}

func TestMulticastSkipsSender(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost()
	group := n.NewGroup()
	n.Join(group, a.ID())
	ep, _ := n.Open(a.ID(), 5)
	self := 0
	ep.SetReceiver(func(pkt []byte, from netapi.Addr) { self++ })
	ep.Send([]byte("x"), netapi.Addr{Host: group, Port: 5})
	k.Run()
	if self != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestRouteChangeMidRun(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a, b := n.AddHost(), n.AddHost()
	terrestrial := n.NewLink(LinkConfig{Bandwidth: mbps(10), PropDelay: 5 * time.Millisecond, MTU: 1500})
	satellite := n.NewLink(LinkConfig{Bandwidth: mbps(10), PropDelay: 275 * time.Millisecond, MTU: 1500})
	back := n.NewLink(LinkConfig{Bandwidth: mbps(10), PropDelay: 5 * time.Millisecond, MTU: 1500})
	n.SetRoute(a.ID(), b.ID(), terrestrial)
	n.SetRoute(b.ID(), a.ID(), back)
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var arrivals []time.Duration
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { arrivals = append(arrivals, k.Now()) })

	epA.Send([]byte("1"), epB.LocalAddr())
	k.Schedule(10*time.Millisecond, func() {
		n.SetRoute(a.ID(), b.ID(), satellite)
		epA.Send([]byte("2"), epB.LocalAddr())
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	if arrivals[0] > 6*time.Millisecond {
		t.Fatalf("terrestrial arrival %v", arrivals[0])
	}
	if arrivals[1] < 285*time.Millisecond {
		t.Fatalf("satellite arrival %v too early", arrivals[1])
	}
}

func TestCPUCostSerializes(t *testing.T) {
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(1000), MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	epB.(*Endpoint).SetCPUCost(CPUCost{PerPDU: 10 * time.Millisecond})
	var arrivals []time.Duration
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { arrivals = append(arrivals, n.Kernel().Now()) })
	for i := 0; i < 3; i++ {
		epA.Send([]byte("x"), epB.LocalAddr())
	}
	n.Kernel().Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals: %v", arrivals)
	}
	if gap := arrivals[2] - arrivals[1]; gap < 10*time.Millisecond {
		t.Fatalf("receive CPU gap %v, want >= 10ms", gap)
	}
	if b.Stats().CPUTime < 30*time.Millisecond {
		t.Fatalf("CPU time %v", b.Stats().CPUTime)
	}
}

func TestCrossTrafficCongestsQueue(t *testing.T) {
	n, a, b, ab, _ := twoHosts(t, LinkConfig{Bandwidth: 8e6, MTU: 1500, QueueLen: 4000})
	// Saturate the link with cross traffic at 120% of bandwidth, so the
	// queue is pinned at capacity regardless of how same-instant arrivals
	// interleave with the cross-traffic ticks.
	ab.StartCrossTraffic(9.6e6, 1000)
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	count := 0
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { count++ })
	stop := n.Kernel().Schedule(500*time.Millisecond, func() { ab.StartCrossTraffic(0, 0) })
	_ = stop
	for i := 0; i < 50; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		n.Kernel().Schedule(d, func() { epA.Send(make([]byte, 1000), epB.LocalAddr()) })
	}
	n.Kernel().Run()
	if ab.Stats().DropsQueue == 0 {
		t.Fatal("cross traffic produced no congestion loss")
	}
	if count == 50 {
		t.Fatal("all packets survived a saturated link with a tiny queue")
	}
}

func TestEphemeralPorts(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost()
	e1, err := n.Open(a.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := n.Open(a.ID(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.LocalAddr().Port == e2.LocalAddr().Port {
		t.Fatal("ephemeral port collision")
	}
	if _, err := n.Open(a.ID(), e1.LocalAddr().Port); err == nil {
		t.Fatal("bind to in-use port succeeded")
	}
	e1.Close()
	if _, err := n.Open(a.ID(), e1.LocalAddr().Port); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSendNoRoute(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a, b := n.AddHost(), n.AddHost()
	epA, _ := n.Open(a.ID(), 1)
	if err := epA.Send([]byte("x"), netapi.Addr{Host: b.ID(), Port: 1}); err == nil {
		t.Fatal("send without route succeeded")
	}
	if err := epA.Send([]byte("x"), netapi.Addr{Host: 99, Port: 1}); err == nil {
		t.Fatal("send to unknown host succeeded")
	}
}

func TestSendOwnsCopy(t *testing.T) {
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: mbps(10), MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var got []byte
	epB.SetReceiver(func(pkt []byte, src netapi.Addr) { got = pkt })
	buf := []byte("original")
	epA.Send(buf, epB.LocalAddr())
	copy(buf, "CLOBBER!")
	n.Kernel().Run()
	if string(got) != "original" {
		t.Fatalf("send aliased caller buffer: %q", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		k := sim.NewKernel(99)
		n := New(k)
		a, b := n.AddHost(), n.AddHost()
		ab := n.NewLink(LinkConfig{Bandwidth: mbps(10), MTU: 1500, DropRate: 0.3, BER: 1e-4})
		n.SetRoute(a.ID(), b.ID(), ab)
		epA, _ := n.Open(a.ID(), 1)
		epB, _ := n.Open(b.ID(), 2)
		var delivered uint64
		epB.SetReceiver(func(pkt []byte, src netapi.Addr) { delivered++ })
		for i := 0; i < 500; i++ {
			epA.Send(make([]byte, 200), epB.LocalAddr())
		}
		k.Run()
		return delivered, ab.Stats().Corrupted
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", d1, c1, d2, c2)
	}
}

func TestMultiHopPath(t *testing.T) {
	// Three links in sequence with a narrow middle hop: the route's
	// delivery time accumulates every hop's serialization + propagation,
	// and the bottleneck sets the pace.
	k := sim.NewKernel(2)
	n := New(k)
	a, b := n.AddHost(), n.AddHost()
	l1 := n.NewLink(LinkConfig{Bandwidth: 100e6, PropDelay: time.Millisecond, MTU: 1500})
	l2 := n.NewLink(LinkConfig{Bandwidth: 8e6, PropDelay: 2 * time.Millisecond, MTU: 1500}) // bottleneck
	l3 := n.NewLink(LinkConfig{Bandwidth: 100e6, PropDelay: time.Millisecond, MTU: 1500})
	n.SetRoute(a.ID(), b.ID(), l1, l2, l3)
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	var arrivals []time.Duration
	epB.SetReceiver(func(pkt []byte, _ netapi.Addr) { arrivals = append(arrivals, k.Now()) })
	for i := 0; i < 3; i++ {
		epA.Send(make([]byte, 1000), epB.LocalAddr())
	}
	k.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals %v", arrivals)
	}
	// First packet: ~4ms prop + serialization on each hop (0.08+1+0.08ms).
	if arrivals[0] < 5*time.Millisecond || arrivals[0] > 6*time.Millisecond {
		t.Fatalf("first arrival %v", arrivals[0])
	}
	// Steady-state spacing set by the 8 Mbps bottleneck: 1 ms per packet.
	if gap := arrivals[2] - arrivals[1]; gap != time.Millisecond {
		t.Fatalf("bottleneck spacing %v", gap)
	}
	if l2.Stats().TxPackets != 3 {
		t.Fatalf("middle hop carried %d", l2.Stats().TxPackets)
	}
}

func TestPathRTTEstimate(t *testing.T) {
	k := sim.NewKernel(2)
	n := New(k)
	a, b := n.AddHost(), n.AddHost()
	fwd := n.NewLink(LinkConfig{Bandwidth: 8e6, PropDelay: 10 * time.Millisecond, MTU: 1500})
	rev := n.NewLink(LinkConfig{Bandwidth: 8e6, PropDelay: 10 * time.Millisecond, MTU: 1500})
	n.SetRoute(a.ID(), b.ID(), fwd)
	n.SetRoute(b.ID(), a.ID(), rev)
	// 100-byte probe: 2x(10ms + 0.1ms serialization) = 20.2ms.
	got := n.PathRTT(a.ID(), b.ID(), 100)
	if got < 20*time.Millisecond || got > 21*time.Millisecond {
		t.Fatalf("PathRTT %v", got)
	}
}
