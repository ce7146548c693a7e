package adaptive_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
)

// faultRun executes one complete adaptive transfer under a burst-loss fault
// plan and returns the UNITES snapshot JSON.
func faultRun(t *testing.T) []byte {
	t.Helper()
	k := sim.NewKernel(21)
	k.SetEventLimit(50_000_000)
	net := netsim.New(k)
	ha, hb := net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500, QueueLen: 1 << 20}
	ab, ba := net.NewLink(link), net.NewLink(link)
	net.SetRoute(ha.ID(), hb.ID(), ab)
	net.SetRoute(hb.ID(), ha.ID(), ba)
	repo := unites.NewRepository()
	na, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(ha.ID()),
		adaptive.WithSeed(1), adaptive.WithObservability(adaptive.Observe{Repository: repo}), adaptive.WithName("a"))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()),
		adaptive.WithSeed(2), adaptive.WithObservability(adaptive.Observe{Repository: repo}), adaptive.WithName("b"))
	if err != nil {
		t.Fatal(err)
	}

	plan := net.NewFaultPlan()
	plan.Impair(300*time.Millisecond, ab, netsim.Impairment{
		PGoodToBad: 0.02, PBadToGood: 0.2, LossGood: 0.001, LossBad: 0.5,
		ReorderRate: 0.002, ReorderDelay: 10 * time.Millisecond, CorruptRate: 0.001,
	})
	plan.ClearImpair(2*time.Second, ab)
	if err := plan.Install(); err != nil {
		t.Fatal(err)
	}

	nb.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnDelivery(func(d adaptive.Delivery) { d.Msg.Release() })
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 8e6},
		Qual:         adaptive.QualQoS{Ordered: true},
		TMC:          adaptive.TMC{SampleRate: 100 * time.Millisecond},
		TSA: []adaptive.Rule{
			{
				Cond:    adaptive.Cond{Metric: adaptive.MetricRetransmitRate, Op: adaptive.OpGT, Threshold: 0.03},
				Action:  adaptive.Action{Kind: adaptive.ActSetRecovery, Recovery: adaptive.RecoveryFECHybrid},
				OneShot: true,
			},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("fault"), 400_000)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(10 * time.Second)
	js, err := repo.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func TestFaultPlanDeterminism(t *testing.T) {
	// Same seed + same fault plan must reproduce the run byte-for-byte,
	// down to the full UNITES metric snapshot.
	a := faultRun(t)
	b := faultRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed fault runs diverged:\nrun1: %d bytes\nrun2: %d bytes", len(a), len(b))
	}
	if !bytes.Contains(a, []byte("session.segue.recovery.")) {
		t.Fatal("no recovery segue recorded in the UNITES snapshot")
	}
}

func TestPartitionDuringHandshakeBackoff(t *testing.T) {
	// A partition injected before the handshake must drive establishment
	// retry with backoff — and, once healed, the connection must establish
	// and transfer without leaking pooled messages (poison mode verifies).
	prev := message.SetPoison(true)
	defer message.SetPoison(prev)

	k := sim.NewKernel(5)
	net := netsim.New(k)
	ha, hb := net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	ab, ba := net.NewLink(link), net.NewLink(link)
	net.SetRoute(ha.ID(), hb.ID(), ab)
	net.SetRoute(hb.ID(), ha.ID(), ba)
	repo := unites.NewRepository()
	na, _ := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(ha.ID()),
		adaptive.WithSeed(1), adaptive.WithObservability(adaptive.Observe{Repository: repo}))
	nb, _ := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()),
		adaptive.WithSeed(2), adaptive.WithObservability(adaptive.Observe{Repository: repo}))

	net.Partition([]adaptive.HostID{ha.ID()}, []adaptive.HostID{hb.ID()})
	k.ScheduleAt(1500*time.Millisecond, func() { net.Heal() })

	var got []byte
	nb.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) { got = append(got, data...) })
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, &adaptive.DialOptions{EstablishTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survived the partition")
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(time.Minute)
	if !conn.Established() {
		t.Fatal("connection never established after heal")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	if retries := repo.TotalCounter("conn.handshake_retries"); retries == 0 {
		t.Fatal("no handshake retries recorded during the partition")
	}
	if drops := net.FaultStats().PartitionDrops; drops == 0 {
		t.Fatal("partition dropped nothing — handshake never crossed it")
	}
}

func TestDialContextCanceled(t *testing.T) {
	k, _, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	nb.Listen(80, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := na.DialContext(ctx, &adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
	}, nil)
	if err == nil {
		t.Fatal("DialContext with canceled context succeeded")
	}
	_ = k
}

func TestDialContextCancelAbortsEstablishment(t *testing.T) {
	k, net, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	// Permanent partition: the handshake can never complete.
	ha, hb := na.Addr().Host, nb.Addr().Host
	net.Partition([]adaptive.HostID{ha}, []adaptive.HostID{hb})
	nb.Listen(80, nil, nil)

	var failed bool
	na.Subscribe(func(connID uint32, note adaptive.Notification) {
		if note.Kind == adaptive.NoteEstablishFailed {
			failed = true
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	conn, err := na.DialContext(ctx, &adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel mid-retry; the ctx poller runs on the session clock, so the
	// abort lands deterministically on the next poll tick.
	k.RunUntil(200 * time.Millisecond)
	cancel()
	k.RunUntil(5 * time.Second)
	if conn.Established() {
		t.Fatal("canceled dial still established")
	}
	if !failed {
		t.Fatal("no NoteEstablishFailed after cancellation")
	}
}

func TestEstablishDeadlineExpires(t *testing.T) {
	k, net, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	net.Partition([]adaptive.HostID{na.Addr().Host}, []adaptive.HostID{nb.Addr().Host})
	nb.Listen(80, nil, nil)
	var failed bool
	na.Subscribe(func(connID uint32, note adaptive.Notification) {
		if note.Kind == adaptive.NoteEstablishFailed {
			failed = true
		}
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
	}, &adaptive.DialOptions{EstablishTimeout: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(10 * time.Second)
	if conn.Established() {
		t.Fatal("established across a permanent partition")
	}
	if !failed {
		t.Fatal("no NoteEstablishFailed after the establish deadline")
	}
}

func TestKeepaliveDeadPeerDetection(t *testing.T) {
	k, net, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	nb.Listen(80, nil, func(c *adaptive.Conn) {})
	var dead bool
	na.Subscribe(func(connID uint32, note adaptive.Notification) {
		if note.Kind == adaptive.NotePeerDead {
			dead = true
		}
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
	}, &adaptive.DialOptions{Keepalive: 100 * time.Millisecond, DeadInterval: 350 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(500 * time.Millisecond)
	if !conn.Established() {
		t.Fatal("never established")
	}
	if dead {
		t.Fatal("peer declared dead while the network was healthy")
	}
	// Sever the network for good: keepalive probes go unanswered and the
	// dead-peer detector must fire after DeadInterval of silence.
	net.Partition([]adaptive.HostID{na.Addr().Host}, []adaptive.HostID{nb.Addr().Host})
	k.RunUntil(5 * time.Second)
	if !dead {
		t.Fatal("no NotePeerDead after severing the peer")
	}
	if !conn.Closed() {
		t.Fatal("dead-peer connection was not torn down")
	}
}

func TestConnErrorSurface(t *testing.T) {
	k, _, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	nb.Listen(80, nil, func(c *adaptive.Conn) {})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(time.Second)

	// Unicast managed connection: participant management is a multicast
	// operation.
	if err := conn.AddParticipant(99); err != adaptive.ErrNotMulticast {
		t.Fatalf("AddParticipant on unicast = %v, want ErrNotMulticast", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	k.RunUntil(5 * time.Second)
	if !conn.Closed() {
		t.Fatal("connection did not close")
	}
	if err := conn.Close(); err != adaptive.ErrClosed {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if err := conn.Reconfigure(func(s *adaptive.Spec) {}); err != adaptive.ErrClosed {
		t.Fatalf("Reconfigure on closed = %v, want ErrClosed", err)
	}

	// DialSpec connections have no MANTTS machinery at all.
	spec := conn.Spec()
	raw, err := na.DialSpec(spec, nb.Addr(), 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.AddParticipant(99); err != adaptive.ErrUnmanaged {
		t.Fatalf("AddParticipant on DialSpec conn = %v, want ErrUnmanaged", err)
	}
	if err := raw.RemoveParticipant(99); err != adaptive.ErrUnmanaged {
		t.Fatalf("RemoveParticipant on DialSpec conn = %v, want ErrUnmanaged", err)
	}
}

// dropNthData is a fault-injection layer on the sender's protocol graph: it
// swallows exactly the n-th (0-based) data PDU the stack transmits.
type dropNthData struct{ n, seen int }

func (d *dropNthData) Name() string { return "drop-nth-data" }

func (d *dropNthData) Outbound(pkt []byte, _ adaptive.Addr) ([]byte, bool) {
	if wire.Type(pkt[0]&0x0f) == wire.TData {
		d.seen++
		return pkt, d.seen-1 != d.n
	}
	return pkt, true
}

func (d *dropNthData) Inbound(pkt []byte, _ adaptive.Addr) ([]byte, bool) { return pkt, true }

// TestFECHybridRebuildsBesideImplicitConfig loses one member of the FEC group
// that also holds the implicit-config PDU: the sender's parity and the
// receiver's accumulator must cover the same bytes of that first PDU, or the
// rebuilt segment — delivered as part of a reliable stream — is garbage.
func TestFECHybridRebuildsBesideImplicitConfig(t *testing.T) {
	k, _, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	var got []byte
	var rcv *adaptive.Conn
	nb.Listen(80, nil, func(c *adaptive.Conn) {
		rcv = c
		c.OnReceive(func(data []byte, _ bool) { got = append(got, data...) })
	})
	na.Stack().InsertLayer(&dropNthData{n: 1})

	spec := mechanism.DefaultSpec()
	spec.ConnMgmt, spec.Recovery, spec.FECGroup = adaptive.ConnImplicit, adaptive.RecoveryFECHybrid, 4
	conn, err := na.DialSpec(spec, nb.Addr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := conn.Send(src); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(5 * time.Second)
	if rcv == nil || rcv.Stats().FECRecovered == 0 {
		t.Fatal("the dropped PDU was not rebuilt from parity: the test lost its subject")
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("delivered stream diverges from the source (%d of %d bytes)", len(got), len(src))
	}
}
