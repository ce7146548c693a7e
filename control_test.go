package adaptive_test

import (
	"bytes"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/mechanism"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/wire"
)

// simTriangle builds three fully meshed hosts: A (dialer/source), B
// (migration target), P (transfer peer).
func simTriangle(t *testing.T, link netsim.LinkConfig) (*sim.Kernel, *adaptive.Node, *adaptive.Node, *adaptive.Node) {
	t.Helper()
	k := sim.NewKernel(3)
	k.SetEventLimit(50_000_000)
	net := netsim.New(k)
	hosts := []*netsim.Host{net.AddHost(), net.AddHost(), net.AddHost()}
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			l := net.NewLink(link)
			net.SetRoute(hosts[i].ID(), hosts[j].ID(), l)
		}
	}
	mk := func(i int, name string) *adaptive.Node {
		n, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hosts[i].ID()),
			adaptive.WithSeed(int64(i+1)), adaptive.WithName(name))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return k, mk(0, "a"), mk(1, "b"), mk(2, "p")
}

// TestMigrateSessionMidStream is the control-plane end-to-end: a live
// session migrates host-to-host mid-transfer with zero app-stream divergence,
// and a stale-epoch sender is provably fenced afterwards.
func TestMigrateSessionMidStream(t *testing.T) {
	k, na, nb, np := simTriangle(t, netsim.LinkConfig{Bandwidth: 20e6, PropDelay: 2 * time.Millisecond, MTU: 1500})

	cp := adaptive.NewControlPlane()
	var adopted *adaptive.Conn
	cp.OnAdopt = func(c *adaptive.Conn) { adopted = c }
	for _, n := range []*adaptive.Node{na, nb, np} {
		if err := cp.Enroll(n, 10); err != nil {
			t.Fatal(err)
		}
	}

	var got []byte
	np.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) { got = append(got, data...) })
	})

	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{np.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 5e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Place(conn); err != nil {
		t.Fatal(err)
	}

	phase1 := bytes.Repeat([]byte("before-migration-"), 4000)
	phase2 := bytes.Repeat([]byte("after-migration!!"), 4000)
	if err := conn.Send(phase1); err != nil {
		t.Fatal(err)
	}
	// Run just long enough that phase 1 is mid-flight: queued segments,
	// unacked PDUs, and reassembly state all travel in the record.
	k.RunUntil(20 * time.Millisecond)

	m, err := cp.MigrateSession(conn, nb.Addr().Host)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(2 * time.Second)
	select {
	case <-m.Done():
	default:
		t.Fatal("migration did not complete")
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	if m.Conn() == nil || m.Conn() != adopted {
		t.Fatalf("migration conn %p != adopted %p", m.Conn(), adopted)
	}

	// The source handle is dead; the adopted one carries the stream on.
	if err := conn.Send([]byte("stale")); err != adaptive.ErrMigrated {
		t.Fatalf("source Send after migration = %v, want ErrMigrated", err)
	}
	if err := adopted.Send(phase2); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(60 * time.Second)

	want := append(append([]byte(nil), phase1...), phase2...)
	if !bytes.Equal(got, want) {
		t.Fatalf("delivered %d bytes, want %d (first divergence at %d)",
			len(got), len(want), firstDiff(got, want))
	}

	// Lease flipped exactly once.
	if host, epoch, ok := cp.Owner(conn.ConnID()); !ok || host != nb.Addr().Host || epoch != 2 {
		t.Fatalf("Owner = %v/%d/%v, want %v/2/true", host, epoch, ok, nb.Addr().Host)
	}
	st := cp.Status()
	if st.Migrations != 1 || st.MigrationsFailed != 0 {
		t.Fatalf("status %+v", st)
	}

	// Stale-epoch sender: replay a data PDU for this connection from the old
	// owner's stack. The peer's fence must reject it (counted, not
	// delivered).
	deliveredBefore := len(got)
	p := wire.GetPDU()
	p.Header = wire.Header{
		Type:    wire.TData,
		ConnID:  conn.ConnID(),
		SrcPort: conn.LocalPort(),
		DstPort: 80,
		Seq:     1, // long-acked: even if it got through it would dedup
	}
	if err := wire.EncodeTo(p, wire.CkCRC32, func(pkt []byte) error {
		return na.Stack().Transmit(pkt, np.Addr())
	}); err != nil {
		t.Fatal(err)
	}
	wire.PutPDU(p)
	k.RunUntil(65 * time.Second)
	if fenced := np.Stack().Stats().FencedPDUs; fenced == 0 {
		t.Fatal("stale-epoch sender was not fenced")
	}
	if len(got) != deliveredBefore {
		t.Fatal("stale-epoch replay changed the delivered stream")
	}

	// Retiring the source copy ended a session on A, but the lease had
	// already moved: the placement is B's until B's copy ends.
	if st := cp.Status(); len(st.Placements) != 1 || st.Hosts[0].Sessions != 0 || st.Hosts[1].Sessions != 1 {
		t.Fatalf("after the source retired: %+v", st)
	}
	adopted.Close()
	k.RunUntil(70 * time.Second)
	if st := cp.Status(); len(st.Placements) != 0 || st.Hosts[1].Sessions != 0 {
		t.Fatalf("after the target copy closed: %+v", st)
	}
}

// TestPlacementReleasedWhenSessionEnds: a placed session that ends gives its
// admission slot back, so a host enrolled with capacity 1 can place one
// session after another and the controller's view holds no ended session.
func TestPlacementReleasedWhenSessionEnds(t *testing.T) {
	k, na, _, np := simTriangle(t, netsim.LinkConfig{Bandwidth: 20e6, PropDelay: 2 * time.Millisecond, MTU: 1500})
	cp := adaptive.NewControlPlane()
	if err := cp.Enroll(na, 1); err != nil {
		t.Fatal(err)
	}
	np.Listen(80, nil, func(c *adaptive.Conn) { c.OnReceive(func([]byte, bool) {}) })
	for i := 0; i < 3; i++ {
		conn, err := na.Dial(&adaptive.ACD{Participants: []adaptive.Addr{np.Addr()}, RemotePort: 80,
			Qual: adaptive.QualQoS{Ordered: true}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Place(conn); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		conn.Send([]byte("x"))
		conn.Close()
		k.RunUntil(k.Now() + 5*time.Second)
		if st := cp.Status(); len(st.Placements) != 0 || st.Hosts[0].Sessions != 0 {
			t.Fatalf("session %d closed, controller still holds %+v", i, st)
		}
	}
}

// TestMigrateRollbackOnDeadTarget drives the failure path: the target host's
// agent is unreachable (no route), retries exhaust, and the source resumes
// with its transfer state intact — the stream still completes on the old
// placement.
func TestMigrateRollbackOnDeadTarget(t *testing.T) {
	k := sim.NewKernel(3)
	k.SetEventLimit(50_000_000)
	net := netsim.New(k)
	ha, hb, hp := net.AddHost(), net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 20e6, PropDelay: 2 * time.Millisecond, MTU: 1500}
	// A<->P routed; B is enrolled but unreachable (no routes at all).
	ab, ba := net.NewLink(link), net.NewLink(link)
	net.SetRoute(ha.ID(), hp.ID(), ab)
	net.SetRoute(hp.ID(), ha.ID(), ba)

	na, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(ha.ID()), adaptive.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hb.ID()), adaptive.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	np, err := adaptive.NewNode(adaptive.WithProvider(net), adaptive.WithHost(hp.ID()), adaptive.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	cp := adaptive.NewControlPlane()
	for _, n := range []*adaptive.Node{na, nb, np} {
		if err := cp.Enroll(n, 0); err != nil {
			t.Fatal(err)
		}
	}

	var got []byte
	np.Listen(80, nil, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) { got = append(got, data...) })
	})
	conn, err := na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{np.Addr()},
		RemotePort:   80,
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Place(conn); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("rollback-payload-"), 3000)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(20 * time.Millisecond)

	m, err := cp.MigrateSession(conn, nb.Addr().Host)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(60 * time.Second)
	select {
	case <-m.Done():
	default:
		t.Fatal("migration neither completed nor rolled back")
	}
	if m.Err() == nil {
		t.Fatal("migration to an unreachable host should fail")
	}
	if host, _, _ := cp.Owner(conn.ConnID()); host != na.Addr().Host {
		t.Fatalf("lease moved to %v despite rollback", host)
	}
	if st := cp.Status(); st.MigrationsFailed != 1 || st.Migrations != 0 {
		t.Fatalf("status %+v", st)
	}
	// The source resumed: the stream completes on the old placement.
	k.RunUntil(120 * time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %d of %d bytes after rollback (first divergence at %d)",
			len(got), len(payload), firstDiff(got, payload))
	}
	if err := conn.Send([]byte("more")); err != nil {
		t.Fatalf("source Send after rollback: %v", err)
	}

	// A record larger than any target accepts (here: 17 MiB still queued) is
	// refused at the source before a chunk is sent, and the session is not
	// left frozen: the backlog drains on the old placement.
	got = got[:0]
	backlog := bytes.Repeat([]byte("0123456789abcdef"), 17<<16)
	if err := conn.Send(backlog); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.MigrateSession(conn, nb.Addr().Host); err == nil {
		t.Fatal("a 17 MiB hand-off record was accepted for sending")
	}
	k.RunUntil(180 * time.Second)
	if want := append([]byte("more"), backlog...); !bytes.Equal(got, want) {
		t.Fatalf("delivered %d of %d bytes after the refused hand-off", len(got), len(want))
	}
}

// TestMigrateUnderLoss drives a cross-host handoff over lossy links with an
// explicit recovery mechanism per row: the handoff record must carry live
// retransmission state (non-empty unacked map) and the migrated stream must
// still arrive with no lost or duplicated sequence — byte-identical. The
// unreliable row repairs nothing, so it runs on a clean link and migrates
// with nothing in flight (what the old owner has in the air when the fence
// flips is lost to it by design); the identity it checks is the same.
func TestMigrateUnderLoss(t *testing.T) {
	cases := []struct {
		name     string
		recovery adaptive.RecoveryKind
		drop     float64
		at       time.Duration // when the migration starts
	}{
		{"SelectiveRepeat", adaptive.RecoverySelectiveRepeat, 0.05, 60 * time.Millisecond},
		{"GoBackN", adaptive.RecoveryGoBackN, 0.05, 60 * time.Millisecond},
		{"FECHybrid", adaptive.RecoveryFECHybrid, 0.05, 60 * time.Millisecond},
		{"None", adaptive.RecoveryNone, 0, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, na, nb, np := simTriangle(t, netsim.LinkConfig{
				Bandwidth: 10e6, PropDelay: 2 * time.Millisecond, MTU: 1500,
				DropRate: tc.drop,
			})
			cp := adaptive.NewControlPlane()
			for _, n := range []*adaptive.Node{na, nb, np} {
				if err := cp.Enroll(n, 0); err != nil {
					t.Fatal(err)
				}
			}

			var got []byte
			np.Listen(80, nil, func(c *adaptive.Conn) {
				c.OnReceive(func(data []byte, eom bool) { got = append(got, data...) })
			})

			spec := mechanism.DefaultSpec()
			spec.Recovery = tc.recovery
			conn, err := na.DialSpec(spec, np.Addr(), 1000, 80)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.Place(conn); err != nil {
				t.Fatal(err)
			}
			phase1 := bytes.Repeat([]byte(tc.name+"/one-"), 30000)
			phase2 := bytes.Repeat([]byte(tc.name+"/two-"), 30000)
			if err := conn.Send(phase1); err != nil {
				t.Fatal(err)
			}
			k.RunUntil(tc.at)

			// Mid-flight under 5% loss the sender must be carrying live
			// retransmission state into the record.
			if h := conn.Session().ExportHandoff(); tc.drop > 0 && len(h.Unacked) == 0 {
				t.Fatal("handoff exported with an empty unacked map; loss test proves nothing")
			}

			m, err := cp.MigrateSession(conn, nb.Addr().Host)
			if err != nil {
				t.Fatal(err)
			}
			k.RunUntil(30 * time.Second)
			select {
			case <-m.Done():
			default:
				t.Fatal("migration did not complete under loss")
			}
			if m.Err() != nil {
				t.Fatal(m.Err())
			}
			if err := m.Conn().Send(phase2); err != nil {
				t.Fatal(err)
			}
			k.RunUntil(300 * time.Second)

			want := append(append([]byte(nil), phase1...), phase2...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: delivered %d bytes, want %d (first divergence at %d)",
					tc.name, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
