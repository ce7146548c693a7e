package rig

import (
	"errors"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/workload"
)

var testLink = netsim.LinkConfig{Bandwidth: 10e6, PropDelay: time.Millisecond, MTU: 1500}

// bothWorlds returns a two-host world of each kind, nodes up, for tests whose
// script must behave the same on the simulator and over UDP loopback.
func bothWorlds(t *testing.T, seed int64) []*World {
	t.Helper()
	s := NewSim(seed, 2)
	s.Mesh(testLink)
	worlds := []*World{s, NewLive(2, 0)}
	for _, w := range worlds {
		t.Cleanup(w.Close)
		for i := range w.Hosts {
			if _, err := w.Node(i, seed+int64(i), w.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return worlds
}

func bulkACD(peer adaptive.Addr) *adaptive.ACD {
	return &adaptive.ACD{
		Participants: []adaptive.Addr{peer},
		RemotePort:   80,
		Qual:         adaptive.QualQoS{Ordered: true},
	}
}

// TestDialWithoutListener is the driver's failure path: the peer's port has no
// listener, so the dial can never establish and Dial must report the stall
// within its limit on the world's own clock.
func TestDialWithoutListener(t *testing.T) {
	for _, w := range bothWorlds(t, 76) {
		const limit = 200 * time.Millisecond
		begin := w.Now()
		_, err := w.Dial(w.Nodes[0], bulkACD(w.Nodes[1].Addr()), nil, limit)
		if !errors.Is(err, ErrEstablishStalled) {
			t.Errorf("%s: dial to a port nobody listens on returned %v", w.Name, err)
		}
		if waited := w.Now() - begin; waited < limit || waited > limit+time.Second {
			t.Errorf("%s: gave up after %v on the world's clock, limit %v", w.Name, waited, limit)
		}
	}
}

// TestTopology: Mesh gives every ordered pair its own routed link; AddLink
// gives exactly the pairs it was called for and leaves the rest unreachable.
func TestTopology(t *testing.T) {
	mesh := NewSim(1, 3)
	mesh.Mesh(testLink)
	seen := map[*netsim.Link]bool{}
	for i := range mesh.Hosts {
		for j := range mesh.Hosts {
			l := mesh.Link(i, j)
			if i == j {
				if l != nil {
					t.Errorf("mesh: host %d has a link to itself", i)
				}
				continue
			}
			if l == nil || seen[l] {
				t.Fatalf("mesh: link %d->%d missing or shared with another pair", i, j)
			}
			seen[l] = true
			if r := mesh.Net.Route(mesh.Hosts[i], mesh.Hosts[j]); len(r) != 1 || r[0] != l {
				t.Errorf("mesh: route %d->%d is %v, want the pair's own link", i, j, r)
			}
		}
	}

	one := NewSim(1, 3)
	slow := netsim.LinkConfig{Bandwidth: 1e6, PropDelay: 40 * time.Millisecond, MTU: 576}
	l := one.AddLink(0, 1, slow)
	if one.Link(0, 1) != l || l.Config() != slow {
		t.Errorf("explicit: Link(0,1) = %v, want the link AddLink returned with its config", one.Link(0, 1))
	}
	for _, pair := range [][2]int{{1, 0}, {0, 2}, {2, 1}} {
		if one.Link(pair[0], pair[1]) != nil || one.Net.Route(one.Hosts[pair[0]], one.Hosts[pair[1]]) != nil {
			t.Errorf("explicit: pair %v is linked or routed though only 0->1 was declared", pair)
		}
	}
}

// TestSeedPaths: each node learns its outgoing links, per peer, with the RTT
// taken as twice the one-way delay.
func TestSeedPaths(t *testing.T) {
	w := NewSim(2, 3)
	cfgs := map[[2]int]netsim.LinkConfig{
		{0, 1}: {Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500, BER: 1e-9},
		{1, 0}: {Bandwidth: 2e6, PropDelay: 7 * time.Millisecond, MTU: 1500},
		{0, 2}: {Bandwidth: 155e6, PropDelay: 275 * time.Millisecond, MTU: 9180, BER: 1e-6},
	}
	for pair, cfg := range cfgs {
		w.AddLink(pair[0], pair[1], cfg)
	}
	for i := range w.Hosts {
		if _, err := w.Node(i, 2, "n"); err != nil {
			t.Fatal(err)
		}
	}
	w.SeedPaths()
	for pair, cfg := range cfgs {
		p := w.Nodes[pair[0]].Entity().NetState().Path(w.Hosts[pair[1]])
		if p.Bandwidth != cfg.Bandwidth || p.RTT != 2*cfg.PropDelay || p.BER != cfg.BER || p.MTU != cfg.MTU {
			t.Errorf("path %v seeded as %+v, link is %+v", pair, p, cfg)
		}
	}
	// 2->0 has no link: host 2 keeps the descriptor's defaults for host 0.
	if p := w.Nodes[2].Entity().NetState().Path(w.Hosts[0]); p.Bandwidth != 0 {
		t.Errorf("unlinked pair seeded with %+v", p)
	}
}

// TestOnKernel: a world built on a supplied kernel runs on that kernel — its
// clock is the kernel's and a transfer across it executes the kernel's events.
func TestOnKernel(t *testing.T) {
	k := sim.NewKernel(3)
	w := OnKernel(k, 2)
	if w.K != k {
		t.Fatal("world does not stand on the supplied kernel")
	}
	w.Mesh(testLink)
	for i := range w.Hosts {
		if _, err := w.Node(i, 3, "n"); err != nil {
			t.Fatal(err)
		}
	}
	sink, err := w.Sink(w.Nodes[1], 80, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.Dial(w.Nodes[0], bulkACD(w.Nodes[1].Addr()), nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Executed()
	if err := conn.Send(make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if !w.Until(time.Millisecond, time.Second, func() bool { return sink.Bytes == 4<<10 }) {
		t.Fatalf("delivered %d of %d bytes", sink.Bytes, 4<<10)
	}
	if k.Executed() == before || k.Now() == 0 || w.Now() != k.Now() {
		t.Errorf("transfer ran off the supplied kernel: executed %d -> %d, kernel now %v, world now %v",
			before, k.Executed(), k.Now(), w.Now())
	}
}

// TestSinkCompletionStamp: DoneAt is stamped by the delivery that carries the
// count across the threshold — not before, once, and on the world's clock —
// at a partial (E1's 99%) and at the full threshold, in both environments.
func TestSinkCompletionStamp(t *testing.T) {
	const total = 256 << 10
	for _, threshold := range []int{total * 99 / 100, total} {
		for _, w := range bothWorlds(t, 81) {
			meter := workload.NewMeter(w)
			sink, err := w.Sink(w.Nodes[1], 80, threshold, meter)
			if err != nil {
				t.Fatal(err)
			}
			conn, err := w.Dial(w.Nodes[0], bulkACD(w.Nodes[1].Addr()), nil, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			w.Do(func() {
				for sent := 0; sent < total && err == nil; sent += 32 << 10 {
					err = conn.Send(make([]byte, 32<<10))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var early bool
			var stamp time.Duration
			if !w.Until(time.Millisecond, 10*time.Second, func() bool {
				early = early || (sink.Bytes < threshold && sink.DoneAt != 0)
				if stamp == 0 {
					stamp = sink.DoneAt
				}
				return sink.Bytes == total
			}) {
				t.Fatalf("%s/%d: delivered %d of %d bytes", w.Name, threshold, sink.Bytes, total)
			}
			w.Do(func() {
				switch {
				case early:
					t.Errorf("%s/%d: DoneAt stamped below the threshold", w.Name, threshold)
				case sink.DoneAt <= 0 || sink.DoneAt > meter.LastAt:
					t.Errorf("%s/%d: DoneAt %v outside (0, last delivery %v]", w.Name, threshold, sink.DoneAt, meter.LastAt)
				case sink.DoneAt != stamp:
					t.Errorf("%s/%d: DoneAt moved from %v to %v after it was stamped", w.Name, threshold, stamp, sink.DoneAt)
				case threshold < total && w.K != nil && sink.DoneAt == meter.LastAt:
					t.Errorf("%s/%d: partial threshold stamped only at the last delivery %v", w.Name, threshold, meter.LastAt)
				case sink.Conn == nil || meter.Bytes != total:
					t.Errorf("%s/%d: conn %v, meter saw %d of %d bytes", w.Name, threshold, sink.Conn, meter.Bytes, total)
				}
			})
		}
	}
}
