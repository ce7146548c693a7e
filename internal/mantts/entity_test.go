package mantts

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// rig is a MANTTS end-to-end test bed: hosts with stacks+entities over a
// simulated network.
type rig struct {
	k      *sim.Kernel
	net    *netsim.Network
	hosts  []*netsim.Host
	stacks []*protograph.Stack
	ents   []*Entity
	links  map[[2]int]*netsim.Link
}

func newRig(t *testing.T, n int, link netsim.LinkConfig) *rig {
	t.Helper()
	k := sim.NewKernel(11)
	k.SetEventLimit(20_000_000)
	net := netsim.New(k)
	r := &rig{k: k, net: net, links: make(map[[2]int]*netsim.Link)}
	for i := 0; i < n; i++ {
		r.hosts = append(r.hosts, net.AddHost())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			l := net.NewLink(link)
			net.SetRoute(r.hosts[i].ID(), r.hosts[j].ID(), l)
			r.links[[2]int{i, j}] = l
		}
	}
	for i := 0; i < n; i++ {
		st, err := protograph.NewStack(protograph.Config{Provider: net, Host: r.hosts[i].ID(), Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		r.stacks = append(r.stacks, st)
		r.ents = append(r.ents, NewEntity(st))
	}
	return r
}

func (r *rig) addr(i int) netapi.Addr { return r.stacks[i].LocalAddr() }

func TestEntityOpensAndTransfers(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500})
	var got []byte
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) {
			got = append(got, d.Msg.Bytes()...)
			d.Msg.Release()
		})
	}})
	acd := &ACD{
		Participants: []netapi.Addr{r.addr(1)},
		RemotePort:   80,
		Quant:        QuantQoS{AvgThroughputBps: 5e6},
		Qual:         QualQoS{Ordered: true},
	}
	r.ents[0].NetState().Seed(r.hosts[1].ID(), StaticPathInfo{Bandwidth: 10e6, RTT: 4 * time.Millisecond, MTU: 1500})
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("entity"), 5000)
	m.Session.Send(payload)
	r.k.RunUntil(20 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d bytes", len(got), len(payload))
	}
	if m.TSC != TSCNonRealTimeNonIsochronous {
		t.Fatalf("classified %v", m.TSC)
	}
}

func TestEntityProbingMeasuresRTT(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 25 * time.Millisecond, MTU: 1500})
	r.ents[0].StartProbingCtx(context.Background(), r.hosts[1].ID(), 20*time.Millisecond)
	r.k.RunUntil(2 * time.Second)
	r.ents[0].StopProbing(r.hosts[1].ID())
	p := r.ents[0].NetState().Path(r.hosts[1].ID())
	if p.ProbesEchoed < 50 {
		t.Fatalf("only %d probe echoes", p.ProbesEchoed)
	}
	// True RTT ~50ms prop + tiny serialization.
	if p.RTT < 45*time.Millisecond || p.RTT > 60*time.Millisecond {
		t.Fatalf("probed RTT %v, want ~50ms", p.RTT)
	}
	now := r.k.Now()
	r.k.RunUntil(now + time.Second)
	after := r.ents[0].NetState().Path(r.hosts[1].ID())
	if after.ProbesSent != p.ProbesSent {
		t.Fatal("probing continued after StopProbing")
	}
}

func TestPolicyRuleTriggersRecoverySegue(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500}
	r := newRig(t, 2, link)
	var got int
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { got += d.Msg.Len(); d.Msg.Release() })
	}})
	// Rule: when retransmit rate exceeds 2%, switch to go-back-n.
	acd := &ACD{
		Participants: []netapi.Addr{r.addr(1)},
		RemotePort:   80,
		Quant:        QuantQoS{AvgThroughputBps: 5e6},
		Qual:         QualQoS{Ordered: true},
		TSA: []Rule{{
			Cond:    Cond{Metric: MetricRetransmitRate, Op: OpGT, Threshold: 0.02},
			Action:  Action{Kind: ActSetRecovery, Recovery: mechanism.RecoveryGoBackN},
			OneShot: true,
		}},
		TMC: TMC{SampleRate: 20 * time.Millisecond},
	}
	r.ents[0].NetState().Seed(r.hosts[1].ID(), StaticPathInfo{Bandwidth: 10e6, RTT: 4 * time.Millisecond, MTU: 1500})
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	if m.Session.Spec().Recovery != mechanism.RecoverySelectiveRepeat {
		t.Fatalf("initial recovery %v", m.Session.Spec().Recovery)
	}
	var notes []string
	r.ents[0].SubscribeNotes(func(_ uint32, n mechanism.Notification) {
		notes = append(notes, n.Detail)
	})
	// Start clean, then loss appears mid-session.
	payload := bytes.Repeat([]byte("x"), 800*1024)
	m.Session.Send(payload)
	r.k.Schedule(50*time.Millisecond, func() { r.links[[2]int{0, 1}].SetDropRate(0.08) })
	r.k.RunUntil(60 * time.Second)
	if m.Session.Spec().Recovery != mechanism.RecoveryGoBackN {
		t.Fatalf("policy never switched recovery; spec=%v notes=%v", m.Session.Spec(), notes)
	}
	if m.Session.CurrentSlots().Recovery.Name() != "go-back-n" {
		t.Fatal("spec changed but mechanism did not segue")
	}
	// Peer must have adopted the reconfiguration too.
	peer := r.stacks[1].Sessions()
	if len(peer) != 1 || peer[0].Spec().Recovery != mechanism.RecoveryGoBackN {
		t.Fatal("peer did not adopt reconfigured spec")
	}
	if got != len(payload) {
		t.Fatalf("delivered %d of %d across the policy switch", got, len(payload))
	}
}

func TestMulticastJoinLeave(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}
	r := newRig(t, 4, link)
	group := r.net.NewGroup()
	// All hosts join the group at the network layer; MANTTS signaling
	// governs session membership.
	for i := 1; i < 4; i++ {
		r.net.Join(group, r.hosts[i].ID())
	}
	received := map[int]int{}
	for i := 1; i < 4; i++ {
		i := i
		r.ents[i].OnMulticastAccept = func(s *session.Session, g netapi.HostID) {
			s.SetReceiver(func(d session.Delivery) { received[i] += d.Msg.Len(); d.Msg.Release() })
		}
	}
	acd := &ACD{
		Participants: []netapi.Addr{
			{Host: group, Port: r.addr(0).Port},
			r.addr(1), r.addr(2),
		},
		RemotePort: 80,
		Quant:      QuantQoS{AvgThroughputBps: 1e6, LossTolerance: 0.05, MaxJitter: 10 * time.Millisecond},
	}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Session.Spec().Multicast {
		t.Fatal("session not multicast")
	}
	// Let invites settle, then stream.
	r.k.RunUntil(200 * time.Millisecond)
	if len(m.Members()) != 2 {
		t.Fatalf("members after invite: %v", m.Members())
	}
	chunk := bytes.Repeat([]byte("m"), 10*1024)
	m.Session.Send(chunk)
	r.k.RunUntil(2 * time.Second)
	if received[1] != len(chunk) || received[2] != len(chunk) {
		t.Fatalf("members received %v", received)
	}
	if received[3] != 0 {
		t.Fatal("uninvited host received data")
	}
	// Host 3 joins mid-session.
	r.ents[0].AddParticipant(m, r.hosts[3].ID())
	r.k.RunUntil(r.k.Now() + 200*time.Millisecond)
	m.Session.Send(chunk)
	r.k.RunUntil(r.k.Now() + 2*time.Second)
	if received[3] != len(chunk) {
		t.Fatalf("late joiner received %d, want %d", received[3], len(chunk))
	}
	// Host 1 leaves: its session closes and stops counting.
	before := received[1]
	r.ents[0].RemoveParticipant(m, r.hosts[1].ID())
	r.net.Leave(group, r.hosts[1].ID())
	r.k.RunUntil(r.k.Now() + 200*time.Millisecond)
	m.Session.Send(chunk)
	r.k.RunUntil(r.k.Now() + 2*time.Second)
	if received[1] != before {
		t.Fatal("departed member kept receiving")
	}
	if received[3] != 2*len(chunk) {
		t.Fatalf("remaining member missed data: %d", received[3])
	}
}

func TestReconfigSignalSurvivesLoss(t *testing.T) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500, DropRate: 0.3}
	r := newRig(t, 2, link)
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	acd := &ACD{
		Participants: []netapi.Addr{r.addr(1)},
		RemotePort:   80,
		Quant:        QuantQoS{AvgThroughputBps: 5e6},
		Qual:         QualQoS{Ordered: true},
	}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	m.Session.Send(bytes.Repeat([]byte("z"), 20*1024))
	r.k.RunUntil(2 * time.Second)
	r.ents[0].Reconfigure(m, func(s *mechanism.Spec) { s.Recovery = mechanism.RecoveryGoBackN })
	r.k.RunUntil(10 * time.Second)
	peer := r.stacks[1].Sessions()
	if len(peer) == 0 {
		t.Fatal("no peer session")
	}
	if peer[0].Spec().Recovery != mechanism.RecoveryGoBackN {
		t.Fatal("reconfig signal lost despite reliable signaling")
	}
}

func TestTerminationReleasesResources(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	acd := &ACD{Participants: []netapi.Addr{r.addr(1)}, RemotePort: 80, Qual: QualQoS{Ordered: true}}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	m.Session.Send([]byte("bye"))
	r.k.RunUntil(time.Second)
	m.Session.Close()
	r.k.RunUntil(5 * time.Second)
	if !m.Session.Closed() {
		t.Fatal("session never closed")
	}
	if r.ents[0].ManagedSession(m.Session.ConnID()) != nil {
		t.Fatal("entity kept managed state after close")
	}
	if r.stacks[0].Session(m.Session.ConnID()) != nil {
		t.Fatal("stack kept session after close")
	}
}

func TestNotifyAppRuleDelivery(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	var seen []string
	r.ents[0].SubscribeNotes(func(_ uint32, n mechanism.Notification) {
		if n.Kind == mechanism.NotePolicyAction {
			seen = append(seen, n.Detail)
		}
	})
	acd := &ACD{
		Participants: []netapi.Addr{r.addr(1)},
		RemotePort:   80,
		Qual:         QualQoS{Ordered: true},
		TSA: []Rule{{
			Cond:    Cond{Metric: MetricThroughputBps, Op: OpLT, Threshold: 1e12},
			Action:  Action{Kind: ActNotifyApp, Note: "slow"},
			OneShot: true,
		}},
		TMC: TMC{SampleRate: 10 * time.Millisecond},
	}
	m, _ := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	m.Session.Send([]byte("hello"))
	r.k.RunUntil(time.Second)
	if len(seen) != 1 || !strings.Contains(seen[0], "slow") {
		t.Fatalf("app notification: %v", seen)
	}
}

func TestProbingCtxStopsOnCancelAndStopFunc(t *testing.T) {
	r := newRig(t, 3, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500})

	// Campaign 1: bounded by a context. Cancellation is observed at the
	// next tick, after which no further probes go out.
	ctx, cancelCtx := context.WithCancel(context.Background())
	r.ents[0].StartProbingCtx(ctx, r.hosts[1].ID(), 20*time.Millisecond)
	r.k.RunUntil(500 * time.Millisecond)
	cancelCtx()
	r.k.RunUntil(600 * time.Millisecond) // one tick to notice cancellation
	p1 := r.ents[0].NetState().Path(r.hosts[1].ID())
	if p1.ProbesSent == 0 {
		t.Fatal("ctx campaign never probed")
	}
	r.k.RunUntil(2 * time.Second)
	if after := r.ents[0].NetState().Path(r.hosts[1].ID()); after.ProbesSent != p1.ProbesSent {
		t.Fatalf("probing continued after ctx cancel: %d -> %d", p1.ProbesSent, after.ProbesSent)
	}

	// Campaign 2: bounded by the stop func; stop is idempotent.
	stop := r.ents[0].StartProbingCtx(context.Background(), r.hosts[2].ID(), 20*time.Millisecond)
	r.k.RunUntil(r.k.Now() + 500*time.Millisecond)
	stop()
	stop()
	p2 := r.ents[0].NetState().Path(r.hosts[2].ID())
	r.k.RunUntil(r.k.Now() + time.Second)
	if after := r.ents[0].NetState().Path(r.hosts[2].ID()); after.ProbesSent != p2.ProbesSent {
		t.Fatal("probing continued after stop()")
	}
}

func TestProbingStopDoesNotKillSuccessor(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500})
	stale := r.ents[0].StartProbingCtx(context.Background(), r.hosts[1].ID(), 20*time.Millisecond)
	// A replacement campaign takes over the host slot...
	r.ents[0].StartProbingCtx(context.Background(), r.hosts[1].ID(), 20*time.Millisecond)
	// ...so the stale campaign's stop must not cancel it.
	stale()
	r.k.RunUntil(time.Second)
	if p := r.ents[0].NetState().Path(r.hosts[1].ID()); p.ProbesSent == 0 {
		t.Fatal("stale stop() canceled the successor campaign")
	}
}

func TestSubscribeNotesMultipleListeners(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	var a, b int
	cancelA := r.ents[0].SubscribeNotes(func(_ uint32, _ mechanism.Notification) { a++ })
	r.ents[0].SubscribeNotes(func(_ uint32, _ mechanism.Notification) { b++ })

	acd := &ACD{
		Participants: []netapi.Addr{r.addr(1)},
		RemotePort:   80,
		Qual:         QualQoS{Ordered: true},
		TSA: []Rule{{
			Cond:    Cond{Metric: MetricThroughputBps, Op: OpLT, Threshold: 1e12},
			Action:  Action{Kind: ActNotifyApp, Note: "ping"},
			OneShot: true,
		}},
		TMC: TMC{SampleRate: 10 * time.Millisecond},
	}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	m.Session.Send([]byte("hello"))
	r.k.RunUntil(time.Second)
	if a == 0 || a != b {
		t.Fatalf("listener counts diverge: a=%d b=%d", a, b)
	}

	// Canceling one listener (twice — idempotent) leaves the other running.
	cancelA()
	cancelA()
	aBefore, bBefore := a, b
	m.Session.Close()
	r.k.RunUntil(r.k.Now() + 2*time.Second)
	if a != aBefore {
		t.Fatal("canceled listener kept firing")
	}
	if b <= bBefore {
		t.Fatal("remaining listener missed the close notification")
	}
}

// TestQualityReportsStopAfterFailedPassiveOpen: a 3-way passive open whose
// CONNCONF never arrives ends in NoteEstablishFailed, not NoteClosed; the
// receiver-report ticker armed at accept must stop within one period of that
// (it used to tick, and hold the session, for the life of the stack), and the
// notifier the acceptor installed first must still be the one that hears it.
func TestQualityReportsStopAfterFailedPassiveOpen(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	var passive *session.Session
	failed := false
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		passive = s
		s.SetNotifier(func(n mechanism.Notification) {
			failed = failed || n.Kind == mechanism.NoteEstablishFailed
		})
		r.ents[1].StartQualityReports(s, s.PeerAddr())
	}})
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt = mechanism.ConnExplicit3Way
	spec.Recovery = mechanism.RecoveryFEC
	s, _, err := r.stacks[0].CreateActiveSession(&spec, r.addr(1), 555, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	// Partition once the CONNREQ has spawned the passive session: its
	// CONNACKs still leave, the CONNCONFs never come back.
	for passive == nil && r.k.Now() < time.Second {
		r.k.RunFor(100 * time.Microsecond)
	}
	if passive == nil {
		t.Fatal("CONNREQ never reached the listener")
	}
	r.links[[2]int{0, 1}].SetDown(true)
	for !passive.Closed() && r.k.Now() < 5*time.Minute {
		r.k.RunFor(time.Second)
	}
	if !failed {
		t.Fatal("passive open never reported NoteEstablishFailed to the acceptor's notifier")
	}

	timers := r.stacks[1].Timers()
	r.k.RunFor(qualReportPeriod)
	settled := timers.Stats()
	r.k.RunFor(time.Minute)
	if after := timers.Stats(); after != settled {
		t.Fatalf("timers still running a report period after the failed open: %+v -> %+v", settled, after)
	}
}

// tlv is one hand-built TLV field.
func tlv(tag uint16, val []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, tag)
	return append(binary.BigEndian.AppendUint16(b, uint16(len(val))), val...)
}

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

// TestSignalWithoutSpecIsDropped: a reconfiguration or join invite whose
// spec is missing, or cut short, used to be applied as the all-defaults spec
// — a live peer session switched to no recovery, no ordering and no
// checksum, a multicast receiver created on default mechanisms. Such a
// signal is refused.
func TestSignalWithoutSpecIsDropped(t *testing.T) {
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	acd := &ACD{Participants: []netapi.Addr{r.addr(1)}, RemotePort: 80, Qual: QualQoS{Ordered: true}}
	m, err := r.ents[0].OpenSessionWith(acd, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	m.Session.Send([]byte("hello"))
	r.k.RunUntil(time.Second)
	id := m.Session.ConnID()
	peer := r.stacks[1].Session(id)
	if peer == nil {
		t.Fatal("no peer session")
	}
	before := *peer.Spec()

	gbn := before
	gbn.Recovery = mechanism.RecoveryGoBackN
	reconfig := bytes.Join([][]byte{tlv(1, []byte{sigReconfig}), tlv(3, u32(id)),
		tlv(4, mechanism.EncodeSpec(&gbn))}, nil)
	specAt := len(reconfig) - 4 - 178
	const stranger = 0xbad
	var seq uint32
	for name, payload := range map[string][]byte{
		"reconfig without a spec":        reconfig[:specAt],
		"reconfig cut in the spec's tag": reconfig[:specAt+2],
		"reconfig cut in the spec":       reconfig[:specAt+100],
		"join invite without a spec": bytes.Join([][]byte{tlv(1, []byte{sigJoinInvite}),
			tlv(3, u32(stranger)), tlv(5, u32(uint32(r.net.NewGroup()))), tlv(6, []byte{0, 80})}, nil),
	} {
		// Each rides the reliable channel as the next document in sequence,
		// so it reaches the entity's decoder.
		seq++
		p := &wire.PDU{Header: wire.Header{Type: wire.TSignal, Seq: seq, Ack: seq}, Payload: message.NewFromBytes(payload)}
		wire.EncodeTo(p, wire.CkCRC32, func(pkt []byte) error { return r.stacks[0].Transmit(pkt, r.addr(1)) })
		p.ReleasePayload()
		r.k.RunUntil(r.k.Now() + 100*time.Millisecond)
		if got := *peer.Spec(); got != before {
			t.Errorf("%s: peer spec moved from %v to %v", name, before, got)
		}
		if r.stacks[1].Session(stranger) != nil {
			t.Errorf("%s: a session was created on default mechanisms", name)
		}
	}
}

// reconfigTap keeps every reconfiguration packet its stack sends, and drops
// every signal while drop is set.
type reconfigTap struct {
	sent [][]byte
	drop bool
}

func (w *reconfigTap) Name() string { return "reconfigtap" }
func (w *reconfigTap) Outbound(pkt []byte, _ netapi.Addr) ([]byte, bool) {
	var p wire.PDU
	if wire.DecodeInto(pkt, &p) != nil || p.Type != wire.TSignal {
		return pkt, true
	}
	defer p.ReleasePayload()
	if sig, err := decodeSignal(p.PayloadBytes()); err == nil && sig.Type == sigReconfig {
		w.sent = append(w.sent, append([]byte(nil), pkt...))
	}
	return pkt, !w.drop
}
func (w *reconfigTap) Inbound(pkt []byte, _ netapi.Addr) ([]byte, bool) { return pkt, true }

// reconfigPair opens a unicast session from host 0 to host 1 of a lossless
// two-host rig, with tap on host 0's packet path.
func reconfigPair(t *testing.T, tap *reconfigTap) (*rig, *Managed) {
	t.Helper()
	r := newRig(t, 2, netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500})
	r.stacks[0].InsertLayer(tap)
	r.stacks[1].Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	}})
	m, err := r.ents[0].OpenSessionWith(&ACD{Participants: []netapi.Addr{r.addr(1)}, RemotePort: 80,
		Qual: QualQoS{Ordered: true}}, OpenOptions{LocalPort: 555})
	if err != nil {
		t.Fatal(err)
	}
	m.Session.Send([]byte("hello"))
	r.k.RunUntil(time.Second)
	return r, m
}

// TestDelayedReconfigIsNotReapplied: the receiver applies reconfigurations in
// the order they were made and each once. A copy of reconfiguration k that
// the network delays past k+1 does not put the older spec back, and a
// duplicate of k+1 is not applied again.
func TestDelayedReconfigIsNotReapplied(t *testing.T) {
	tap := &reconfigTap{}
	r, m := reconfigPair(t, tap)
	peer := r.stacks[1].Session(m.Session.ConnID())
	if peer == nil {
		t.Fatal("no peer session")
	}
	var applied int
	r.ents[1].SubscribeNotes(func(_ uint32, n mechanism.Notification) {
		if n.Kind == mechanism.NotePeerReconfig {
			applied++
		}
	})
	for _, rec := range []mechanism.RecoveryKind{mechanism.RecoveryGoBackN, mechanism.RecoveryFEC} {
		if err := r.ents[0].Reconfigure(m, func(s *mechanism.Spec) { s.Recovery = rec }); err != nil {
			t.Fatal(err)
		}
		r.k.RunFor(100 * time.Millisecond)
	}
	if len(tap.sent) != 2 || applied != 2 || peer.Spec().Recovery != mechanism.RecoveryFEC {
		t.Fatalf("%d reconfigurations sent, %d applied, peer on %v; want 2, 2, fec", len(tap.sent), applied, peer.Spec().Recovery)
	}
	for i, pkt := range [][]byte{tap.sent[0], tap.sent[1], tap.sent[1]} {
		if err := r.stacks[0].Transmit(pkt, r.addr(1)); err != nil {
			t.Fatal(err)
		}
		r.k.RunFor(100 * time.Millisecond)
		if applied != 2 || peer.Spec().Recovery != mechanism.RecoveryFEC {
			t.Fatalf("after replay %d (k, k+1, k+1): %d applied, peer on %v; want 2, fec", i+1, applied, peer.Spec().Recovery)
		}
	}
}

// TestLostReconfigAbortsSession: a reconfiguration the peer never confirms
// leaves the two ends on different mechanisms, which is a broken session. It
// is aborted, and the application is told once, with the reason.
func TestLostReconfigAbortsSession(t *testing.T) {
	tap := &reconfigTap{}
	r, m := reconfigPair(t, tap)
	var closed []string
	r.ents[0].SubscribeNotes(func(_ uint32, n mechanism.Notification) {
		if n.Kind == mechanism.NoteClosed {
			closed = append(closed, n.Detail)
		}
	})
	tap.drop = true
	if err := r.ents[0].Reconfigure(m, func(s *mechanism.Spec) { s.Recovery = mechanism.RecoveryGoBackN }); err != nil {
		t.Fatal(err)
	}
	r.k.RunFor(10 * time.Second)
	if len(tap.sent) < 2 {
		t.Fatalf("the reconfiguration was sent %d times, never retried", len(tap.sent))
	}
	if len(closed) != 1 || !strings.Contains(closed[0], "reconfiguration never confirmed") || !m.Session.Closed() {
		t.Fatalf("application heard %q, session closed %v; want one NoteClosed with the reason", closed, m.Session.Closed())
	}
}
