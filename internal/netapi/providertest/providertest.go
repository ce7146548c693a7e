// Package providertest holds the netapi contract as one test suite. Run checks
// every property the protocol stack relies on against a provider, so the
// simulator, the UDP provider and any wrapper over them are held to the same
// rules in the same words:
//
//   - On a lossless provider every Send is delivered exactly once, in order
//     per (source, destination), from the sender's address, byte for byte,
//     though the caller overwrites its buffer as soon as Send returns.
//   - A packet buffer is valid only during its upcall: once the upcall
//     returns the provider recycles it, so under message poison mode a
//     receiver that keeps one reads poison.
//   - Upcalls and timer callbacks run only on the loop: the goroutine that
//     runs the host's Do closures.
//   - Nothing is delivered to an endpoint after its Close returns, and no
//     upcall or timer callback runs once the world's Close has returned.
//   - Send after Close errors, and so does a send to an unknown host or
//     group; the closed address can be opened again.
//   - A timer fires once, on the loop, no earlier than its delay. After Stop
//     returns true, or after Reset, the superseded arm's callback never runs,
//     even when its expiry came due while the loop was busy; Stop after the
//     callback ran returns false.
//   - Batch and per-packet receivers see the same packets, and no packet
//     twice.
//   - Multicast reaches every member except the sender.
package providertest

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/netapi"
)

// Host is one host of a World.
type Host struct {
	ID       netapi.HostID
	Provider netapi.Provider // the provider the host's endpoint opens on
	// Do runs fn on the provider's event loop and returns once it has run.
	Do func(fn func())
}

// World is one provider arm under test: at least four hosts, each pair
// reachable without loss, none of them UnknownHost.
type World struct {
	Hosts []Host
	// Group makes a multicast group of members on every provider of the world.
	Group func(members ...netapi.HostID) netapi.HostID
	// Advance lets d of provider time pass with the loops running.
	Advance func(d time.Duration)
	// Close shuts the world down; it is idempotent.
	Close func()
}

// UnknownHost and UnknownGroup name no host and no group of any World.
const (
	UnknownHost  netapi.HostID = 0x7fff_0000
	UnknownGroup               = netapi.MulticastBit | UnknownHost
)

// port is the netapi port every endpoint of the suite binds.
const port = 7

// Run checks each property on a fresh world from newWorld.
func Run(t *testing.T, newWorld func(t *testing.T) World) {
	for _, c := range []struct {
		name string
		run  func(*harness)
	}{
		{"ExactlyOnceInOrder", exactlyOnceInOrder},
		{"BufferValidOnlyInUpcall", bufferValidOnlyInUpcall},
		{"NothingAfterClose", nothingAfterClose},
		{"SendErrors", sendErrors},
		{"Timers", timers},
		{"BatchAndPerPacket", batchAndPerPacket},
		{"Multicast", multicast},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t)
			if len(w.Hosts) < 4 {
				t.Fatalf("world has %d hosts, want at least 4", len(w.Hosts))
			}
			t.Cleanup(w.Close)
			n := len(w.Hosts)
			h := &harness{t: t, w: w, loops: make([]uint64, n), eps: make([]netapi.Endpoint, n), sinks: make([]sink, n)}
			for i := range w.Hosts {
				h.do(i, func() { h.loops[i] = goid() })
			}
			c.run(h)
		})
	}
}

// harness drives one world. sinks[i] and loops[i] are touched only on host
// i's loop, so the race detector also reports a callback that runs off it.
type harness struct {
	t      *testing.T
	w      World
	loops  []uint64 // the goroutine running each host's loop
	eps    []netapi.Endpoint
	sinks  []sink
	closed atomic.Bool // the world's Close has returned
}

// sink is what one host's receivers saw.
type sink struct {
	pkts   []rx
	closed bool // the endpoint's Close has returned
}

type rx struct {
	from  netapi.Addr
	data  []byte // a copy
	view  []byte // the provider's buffer, kept past the upcall on purpose
	batch bool   // delivered through the batch receiver
}

func (h *harness) do(i int, fn func()) { h.w.Hosts[i].Do(fn) }

// onLoop fails the test unless the caller runs on host i's loop while the
// world is open.
func (h *harness) onLoop(i int, what string) {
	if h.closed.Load() {
		h.t.Errorf("%s for %v ran after the world's Close returned", what, h.w.Hosts[i].ID)
	}
	if g := goid(); g != h.loops[i] {
		h.t.Errorf("%s for %v ran on goroutine %d, not its loop (%d)", what, h.w.Hosts[i].ID, g, h.loops[i])
	}
}

// goid returns the calling goroutine's id, from the first line of its stack
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// open binds host i's endpoint on port with a per-packet receiver and, when
// batch is set and the endpoint takes one, a batch receiver as well.
func (h *harness) open(i int, batch bool) {
	s := &h.sinks[i]
	record := func(pkt []byte, from netapi.Addr, inBatch bool) {
		h.onLoop(i, "upcall")
		if s.closed {
			h.t.Errorf("%v: delivery after its endpoint's Close returned", h.w.Hosts[i].ID)
		}
		s.pkts = append(s.pkts, rx{from: from, data: bytes.Clone(pkt), view: pkt, batch: inBatch})
	}
	var err error
	h.do(i, func() {
		var ep netapi.Endpoint
		if ep, err = h.w.Hosts[i].Provider.Open(h.w.Hosts[i].ID, port); err != nil {
			return
		}
		ep.SetReceiver(func(pkt []byte, from netapi.Addr) { record(pkt, from, false) })
		if be, ok := ep.(netapi.BatchEndpoint); ok && batch {
			be.SetBatchReceiver(func(b []netapi.Packet) {
				for _, p := range b {
					record(p.Data, p.From, true)
				}
			})
		}
		h.eps[i] = ep
	})
	if err != nil {
		h.t.Fatalf("open %v: %v", h.w.Hosts[i].ID, err)
	}
}

// packet is the suite's payload: the sending host's index, a sequence
// number, and a filler whose length and bytes both follow from the two.
func packet(src, seq int) []byte {
	p := make([]byte, 5+(seq*37+src)%200)
	p[0] = byte(src)
	binary.BigEndian.PutUint32(p[1:], uint32(seq))
	for k := 5; k < len(p); k++ {
		p[k] = byte(seq + src + k)
	}
	return p
}

// parse returns a payload's source index and sequence number; ok is false
// when the bytes are not what packet built.
func parse(p []byte) (src, seq int, ok bool) {
	if len(p) < 5 {
		return 0, 0, false
	}
	src, seq = int(p[0]), int(binary.BigEndian.Uint32(p[1:]))
	return src, seq, bytes.Equal(p, packet(src, seq))
}

// send sends packet(i, seq) from host i's endpoint, on its loop, to dst,
// then overwrites the buffer: Send may not keep it.
func (h *harness) send(i, seq int, dst netapi.Addr) {
	p := packet(i, seq)
	if err := h.eps[i].Send(p, dst); err != nil {
		h.t.Errorf("%v: send %d to %v: %v", h.w.Hosts[i].ID, seq, dst, err)
	}
	for k := range p {
		p[k] = ^p[k]
	}
}

// await advances the world until host i has received n packets; it fails the
// test if a few seconds of provider time pass first.
func (h *harness) await(i, n int) {
	for waited := time.Duration(0); ; waited += time.Millisecond {
		var got int
		h.do(i, func() { got = len(h.sinks[i].pkts) })
		if got >= n {
			return
		}
		if waited > 5*time.Second {
			h.t.Fatalf("%v received %d packets of %d", h.w.Hosts[i].ID, got, n)
		}
		h.w.Advance(time.Millisecond)
	}
}

// settle lets a late duplicate or a stale callback show before a check.
func (h *harness) settle() { h.w.Advance(30 * time.Millisecond) }

// hold, called in a loop closure, keeps the loop busy for 5 ms of wall time
// (no virtual time passes), so what comes due meanwhile — a 1 ms timer's
// expiry, a datagram on the socket — queues behind the closure.
func hold() { time.Sleep(5 * time.Millisecond) }

// checkStreams checks, on host j's loop, that every packet arrived intact from
// its sender's address, and that each source in n's keys delivered sequence
// numbers 0..n-1 once each, in order.
func (h *harness) checkStreams(j int, n map[int]int) {
	h.do(j, func() {
		next := map[int]int{}
		for _, p := range h.sinks[j].pkts {
			src, seq, ok := parse(p.data)
			switch {
			case !ok:
				h.t.Errorf("%v: packet damaged: % x", h.w.Hosts[j].ID, p.data)
			case src >= len(h.eps) || h.eps[src] == nil || p.from != h.eps[src].LocalAddr():
				h.t.Errorf("%v: packet of host index %d from %v", h.w.Hosts[j].ID, src, p.from)
			case seq != next[src]:
				h.t.Errorf("%v: from %v got seq %d, want %d (lost, repeated or reordered)", h.w.Hosts[j].ID, p.from, seq, next[src])
			default:
				next[src]++
			}
		}
		for src, want := range n {
			if next[src] != want {
				h.t.Errorf("%v: %d packets in order from %v, want %d", h.w.Hosts[j].ID, next[src], h.w.Hosts[src].ID, want)
			}
		}
		if len(next) > len(n) {
			h.t.Errorf("%v: packets from %d sources, want %d", h.w.Hosts[j].ID, len(next), len(n))
		}
	})
}

// exactlyOnceInOrder has every host send rounds of bursts to every other,
// through batch receivers on even hosts and per-packet ones on odd hosts.
func exactlyOnceInOrder(h *harness) {
	const rounds, burst = 4, 8
	n := len(h.w.Hosts)
	for i := range h.w.Hosts {
		h.open(i, i%2 == 0)
	}
	for r := 0; r < rounds; r++ {
		for i := range h.w.Hosts {
			h.do(i, func() {
				for j := range h.w.Hosts {
					for k := 0; k < burst && j != i; k++ {
						h.send(i, r*burst+k, h.eps[j].LocalAddr())
					}
				}
			})
		}
		h.w.Advance(time.Millisecond)
	}
	for j := range h.w.Hosts {
		h.await(j, (n-1)*rounds*burst)
	}
	h.settle()
	for j := range h.w.Hosts {
		want := map[int]int{}
		for i := range h.w.Hosts {
			if i != j {
				want[i] = rounds * burst
			}
		}
		h.checkStreams(j, want)
	}
}

// bufferValidOnlyInUpcall keeps every delivered buffer past its upcall; with
// poison mode on, none may still read its packet once the upcall returned.
func bufferValidOnlyInUpcall(h *harness) {
	defer message.SetPoison(message.SetPoison(true)) // before any traffic
	const n = 16
	h.open(0, false)
	h.open(1, true)
	h.do(0, func() {
		for seq := 0; seq < n; seq++ {
			h.send(0, seq, h.eps[1].LocalAddr())
		}
	})
	h.await(1, n)
	h.do(1, func() {
		for _, p := range h.sinks[1].pkts {
			if bytes.Equal(p.view, p.data) {
				h.t.Errorf("a delivery buffer still reads its packet after the upcall returned: poison mode cannot catch a receiver that keeps it")
				return
			}
		}
	})
}

// nothingAfterClose closes an endpoint with packets in flight to it, then the
// world with a timer pending and packets in flight.
func nothingAfterClose(h *harness) {
	for i := 0; i < 3; i++ {
		h.open(i, true)
	}
	burst := func(dst int) {
		h.do(0, func() {
			for seq := 0; seq < 16; seq++ {
				h.eps[0].Send(packet(0, seq), h.eps[dst].LocalAddr()) // may fail once dst is closed
			}
		})
	}
	burst(1)
	h.do(1, func() {
		hold()
		if err := h.eps[1].Close(); err != nil {
			h.t.Errorf("close: %v", err)
		}
		h.sinks[1].closed = true
	})
	burst(1)
	h.settle()
	h.do(0, func() {
		h.w.Hosts[0].Provider.Clock().AfterFunc(time.Millisecond, func() { h.onLoop(0, "timer callback") })
	})
	burst(2)
	h.w.Close()
	h.closed.Store(true)
	time.Sleep(30 * time.Millisecond)
}

// sendErrors sends to an unknown host and group, closes, sends again, and
// reopens the closed address.
func sendErrors(h *harness) {
	h.open(0, false)
	h.open(1, false)
	dst := h.eps[1].LocalAddr()
	h.do(0, func() {
		for _, bad := range []netapi.HostID{UnknownHost, UnknownGroup} {
			if err := h.eps[0].Send(packet(0, 0), netapi.Addr{Host: bad, Port: port}); err == nil {
				h.t.Errorf("send to %v succeeded", bad)
			}
		}
		if err := h.eps[0].Close(); err != nil {
			h.t.Errorf("close: %v", err)
		}
		if err := h.eps[0].Send(packet(0, 0), dst); err == nil {
			h.t.Errorf("send after Close succeeded")
		}
	})
	h.open(0, false)
	h.do(0, func() { h.send(0, 0, dst) })
	h.await(1, 1)
	h.settle()
	h.checkStreams(1, map[int]int{0: 1})
}

// timers checks firing, Stop and Reset on host 0's clock, including an
// expiry that comes due while the loop is held inside a closure.
func timers(h *harness) {
	c := h.w.Hosts[0].Provider.Clock()
	var fired [4][]time.Duration // per timer, on host 0's loop
	arm := func(k int, d time.Duration) netapi.Timer {
		return c.AfterFunc(d, func() {
			h.onLoop(0, "timer callback")
			fired[k] = append(fired[k], c.Now())
		})
	}
	count := func(k int) (n int) {
		h.do(0, func() { n = len(fired[k]) })
		return n
	}
	waitFired := func(k, n int) time.Duration {
		for waited := time.Duration(0); count(k) < n; waited += time.Millisecond {
			if waited > 5*time.Second {
				h.t.Fatalf("timer %d fired %d times, want %d", k, count(k), n)
			}
			h.w.Advance(time.Millisecond)
		}
		var at time.Duration
		h.do(0, func() { at = fired[k][n-1] })
		return at
	}
	var start time.Duration
	var t0, t1, t2, t3 netapi.Timer
	h.do(0, func() {
		start = c.Now()
		t0 = arm(0, 10*time.Millisecond)
		t1 = arm(1, 10*time.Millisecond)
		if !t1.Stop() {
			h.t.Errorf("Stop of a pending timer returned false")
		}
		t2 = arm(2, time.Millisecond)
		hold()
		if !t2.Stop() {
			h.t.Errorf("Stop of a timer whose callback has not run returned false")
		}
	})
	if at := waitFired(0, 1); at-start < 10*time.Millisecond {
		h.t.Errorf("a 10ms timer fired after %v", at-start)
	}
	h.do(0, func() {
		if t0.Stop() {
			h.t.Errorf("Stop after the callback ran returned true")
		}
	})

	var reset time.Duration
	h.do(0, func() {
		t3 = arm(3, time.Millisecond)
		hold()
		reset = c.Now()
		if r, ok := t3.(interface{ Reset(time.Duration) }); ok {
			r.Reset(20 * time.Millisecond)
		} else {
			t3.Stop()
			t3 = arm(3, 20*time.Millisecond)
		}
	})
	if at := waitFired(3, 1); at-reset < 20*time.Millisecond {
		h.t.Errorf("fired %v after a re-arm for 20ms: a superseded expiry ran", at-reset)
	}
	h.settle()
	h.do(0, func() {
		for k, want := range []int{1, 0, 0, 1} {
			if len(fired[k]) != want {
				h.t.Errorf("timer %d fired %d times, want %d", k, len(fired[k]), want)
			}
		}
	})
}

// batchAndPerPacket sends the same stream to a per-packet receiver and to an
// endpoint with both receivers installed.
func batchAndPerPacket(h *harness) {
	const rounds, burst = 2, 16
	h.open(0, false)
	h.open(1, false)
	h.open(2, true)
	for r := 0; r < rounds; r++ {
		h.do(0, func() {
			for _, dst := range []int{1, 2} {
				for k := 0; k < burst; k++ {
					h.send(0, r*burst+k, h.eps[dst].LocalAddr())
				}
			}
		})
	}
	h.await(1, rounds*burst)
	h.await(2, rounds*burst)
	h.settle()
	for _, j := range []int{1, 2} {
		h.checkStreams(j, map[int]int{0: rounds * burst})
	}
	h.do(2, func() {
		var batched int
		for _, p := range h.sinks[2].pkts {
			if p.batch {
				batched++
			}
		}
		h.t.Logf("%d of %d packets through the batch receiver", batched, len(h.sinks[2].pkts))
	})
}

// multicast has every host send one packet to a group of all of them.
func multicast(h *harness) {
	ids := make([]netapi.HostID, len(h.w.Hosts))
	for i := range h.w.Hosts {
		ids[i] = h.w.Hosts[i].ID
		h.open(i, i%2 == 0)
	}
	g := h.w.Group(ids...)
	for i := range h.w.Hosts {
		h.do(i, func() { h.send(i, 0, netapi.Addr{Host: g, Port: port}) })
	}
	for j := range h.w.Hosts {
		h.await(j, len(h.w.Hosts)-1)
	}
	h.settle()
	for j := range h.w.Hosts {
		want := map[int]int{}
		for i := range h.w.Hosts {
			if i != j {
				want[i] = 1
			}
		}
		h.checkStreams(j, want)
	}
}
