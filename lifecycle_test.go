package adaptive_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/message"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/sim"
)

// churnLevels is what a node must hold no more of after the five-hundredth
// connection than after the tenth.
type churnLevels struct {
	sessions  int   // both stacks' demux tables
	recorders int   // UNITES repository (live connections + one retired recorder per host)
	timers    int   // events armed on both stacks' timer managers
	buffers   int64 // pooled message buffers not yet released
}

func levelsOf(w *rig.World) churnLevels {
	var l churnLevels
	w.Do(func() {
		for _, n := range w.Nodes {
			l.sessions += len(n.Stack().Sessions())
			l.timers += n.Stack().Timers().Stats().Pending
		}
	})
	l.recorders = len(w.Repo.Recorders())
	l.buffers = message.Outstanding()
	return l
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChurnLeavesNothingBehind is the leak invariant of the session
// lifecycle: 500 dial → send → close cycles over 8 listener ports, with the
// test holding on to every Conn of both ends (as a benchmark or a connection
// log would), on the simulator and over UDP loopback. What a closed
// connection held must be gone whoever still holds its handle: the demux
// tables, the metric repository, the timer wheels and the message pools stand
// where they stood after ten cycles, and the live heap stops growing but for
// the handles themselves.
func TestChurnLeavesNothingBehind(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	t.Run("sim", func(t *testing.T) {
		churn(t, func() *rig.World {
			w := rig.NewSim(41, 2)
			w.Mesh(netsim.LinkConfig{Bandwidth: 100e6, PropDelay: time.Millisecond, MTU: 1500})
			return w
		})
	})
	t.Run("live", func(t *testing.T) {
		churn(t, func() *rig.World { return rig.NewLive(2, 0) })
	})
}

func churn(t *testing.T, world func() *rig.World) {
	const (
		cycles = 500
		ports  = 8
		limit  = 10 * time.Second
	)
	goroutines := runtime.NumGoroutine()
	w := world()
	defer w.Close()
	for i := range w.Hosts {
		if _, err := w.Node(i, int64(7+i), w.Name+"-"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	client, server := w.Nodes[0], w.Nodes[1]

	var held []*adaptive.Conn // every Conn of both ends, never dropped
	delivered := 0
	for p := 0; p < ports; p++ {
		if err := w.Listen(server, uint16(4000+p), func(c *adaptive.Conn) {
			held = append(held, c)
			c.OnReceive(func(data []byte, eom bool) { delivered += len(data) })
		}); err != nil {
			t.Fatal(err)
		}
	}

	payload := make([]byte, 8<<10)
	var after10 churnLevels
	var heap100 uint64
	for i := 1; i <= cycles; i++ {
		acd := &adaptive.ACD{
			Participants: []adaptive.Addr{server.Addr()},
			RemotePort:   uint16(4000 + i%ports),
			Qual:         adaptive.QualQoS{Ordered: true},
		}
		conn, err := w.Dial(client, acd, nil, limit)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		var want int
		w.Do(func() {
			held = append(held, conn)
			want = delivered + len(payload)
			err = conn.Send(payload)
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !w.Until(time.Millisecond, limit, func() bool { return delivered == want }) {
			t.Fatalf("cycle %d: the payload was not delivered within %v", i, limit)
		}
		w.Do(func() { conn.Close() })
		if !w.Until(time.Millisecond, limit, func() bool {
			return conn.Closed() && held[len(held)-2].Closed()
		}) {
			t.Fatalf("cycle %d: close did not complete on both ends", i)
		}
		switch i {
		case 10:
			after10 = levelsOf(w)
		case 100:
			heap100 = liveHeap()
		}
	}
	if got := levelsOf(w); got != after10 {
		t.Errorf("after %d cycles %+v, after 10 cycles %+v", cycles, got, after10)
	}
	if after10.sessions != 0 || after10.timers != 0 {
		t.Errorf("closed connections left %d sessions and %d pending timers", after10.sessions, after10.timers)
	}
	// The Conns the test itself keeps are the one thing allowed to add up:
	// huskBytes each (the handle, its final Spec, the slot in held). Beyond
	// them the live heap may not grow by a tenth over the last 400 cycles.
	const huskBytes = 384
	heap500 := liveHeap()
	husks := float64(2 * (cycles - 100) * huskBytes)
	t.Logf("live heap after GC: %d bytes at cycle 100, %d at cycle %d", heap100, heap500, cycles)
	if grown := float64(heap500) - float64(heap100); grown-husks > 0.10*float64(heap100) {
		t.Errorf("live heap grew %.0f KiB from cycle 100 to cycle %d (%d -> %d bytes): more than a tenth beyond the %.0f KiB its %d closed Conns may keep",
			grown/1024, cycles, heap100, heap500, husks/1024, 2*(cycles-100))
	}
	if st := server.Stack().Stats(); st.SessionsRetired != cycles || st.Tombstones > cycles {
		t.Errorf("server stack: %d sessions retired, %d tombstones after %d cycles", st.SessionsRetired, st.Tombstones, cycles)
	}
	runtime.KeepAlive(held)

	// A closed node is off the network: it echoes no probe and accepts no
	// connection, and its host identity can be brought up again.
	if err := server.Close(); err != nil {
		t.Error(err)
	}
	path := func() mantts.PathState { return client.Entity().NetState().Path(server.Addr().Host) }
	var accepted int
	var stray *adaptive.Conn
	w.Do(func() {
		accepted = len(held)
		client.ProbeContext(context.Background(), server.Addr().Host, 2*time.Millisecond)
		if stray, _ = client.Dial(&adaptive.ACD{Participants: []adaptive.Addr{server.Addr()}, RemotePort: 4000,
			Qual: adaptive.QualQoS{Ordered: true}}, nil); stray != nil {
			stray.Send(payload)
		}
	})
	if sent := path().ProbesSent; !w.Until(time.Millisecond, limit, func() bool { return path().ProbesSent >= sent+5 }) {
		t.Fatal("the probing campaign stalled")
	}
	w.Do(func() {
		if p := path(); p.ProbesEchoed != 0 || len(held) != accepted {
			t.Errorf("a closed node echoed %d probes and accepted %d connections", p.ProbesEchoed, len(held)-accepted)
		}
		if stray != nil {
			stray.Abort()
		}
	})
	if _, err := w.Node(1, 8, w.Name+"-b2"); err != nil {
		t.Fatalf("reopening the closed node's host: %v", err)
	}
	if !w.Until(time.Millisecond, limit, func() bool { return path().ProbesEchoed > 0 }) {
		t.Error("the reopened host echoes no probe")
	}

	for _, n := range w.Nodes {
		if err := n.Close(); err != nil {
			t.Error(err)
		}
	}
	for _, n := range w.Nodes {
		if got := n.Stack().Timers().Stats().Pending; got != 0 {
			t.Errorf("%d timers pending on a closed node", got)
		}
	}
	w.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Node.Close and World.Close, %d before the world came up", n, goroutines)
	}
}

// TestNodeCloseAfterProviderClosed is the other order a live world shuts down
// in (bench/live.go, rig.World.Close): the provider first. Its loop has exited,
// so Node.Close must do its work inline — and still end every session.
func TestNodeCloseAfterProviderClosed(t *testing.T) {
	w := rig.NewLive(2, 0)
	defer w.Close()
	for i := range w.Hosts {
		if _, err := w.Node(i, int64(3+i), "late-"+string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	var accepted *adaptive.Conn
	if err := w.Listen(w.Nodes[1], 80, func(c *adaptive.Conn) { accepted = c }); err != nil {
		t.Fatal(err)
	}
	conn, err := w.Dial(w.Nodes[0], &adaptive.ACD{
		Participants: []adaptive.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	for _, n := range w.Nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if left := len(n.Stack().Sessions()); left != 0 {
			t.Fatalf("%d sessions outlived Node.Close", left)
		}
	}
	if !conn.Closed() || accepted == nil || !accepted.Closed() {
		t.Fatal("Node.Close after the provider closed left a connection open")
	}
}

// bulkPair is a dialed connection over a fast simulated link, with the
// accepting end counting what it delivers.
type bulkPair struct {
	k              *sim.Kernel
	conn, accepted *adaptive.Conn
	delivered      int
}

func newBulkPair(t *testing.T) *bulkPair {
	t.Helper()
	k, _, na, nb := simPair(t, netsim.LinkConfig{Bandwidth: 1e9, PropDelay: time.Millisecond, MTU: 1500})
	b := &bulkPair{k: k}
	nb.Listen(80, nil, func(c *adaptive.Conn) {
		b.accepted = c
		c.OnReceive(func(data []byte, eom bool) { b.delivered += len(data) })
	})
	var err error
	if b.conn, err = na.Dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Qual:         adaptive.QualQoS{Ordered: true},
	}, nil); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBulkSendLeavesNoGarbage: a message is copied once, segment by segment,
// into pooled buffers that go back to their pool when acknowledged, so
// sending costs the heap nothing that grows with the bytes sent — no
// message-sized buffer, no encode scratch. 64 sends of 256 KiB (beyond every
// pool class, as live_bulk sends them), each delivered before the next, may
// allocate less than 1 % of their 16 MiB.
func TestBulkSendLeavesNoGarbage(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under -race sync.Pool drops a quarter of what it is given back: netsim's per-packet records are reallocated")
	}
	b := newBulkPair(t)
	payload := make([]byte, 256<<10)
	send := func() {
		want := b.delivered + len(payload)
		if err := b.conn.Send(payload); err != nil {
			t.Fatal(err)
		}
		for b.delivered < want && b.k.Step() {
		}
		if b.delivered != want {
			t.Fatalf("delivered %d of %d bytes", b.delivered, want)
		}
	}
	// Warm-up: slow start widens the flight over the first ten or so messages,
	// and the pools, queues and event lists grow with it to their working size.
	for i := 0; i < 16; i++ {
		send()
	}
	const sends = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sends; i++ {
		send()
	}
	runtime.ReadMemStats(&after)
	sent := uint64(sends * len(payload))
	if got := after.TotalAlloc - before.TotalAlloc; got*100 >= sent {
		t.Errorf("%d sends of %d KiB allocated %d KiB: %.1f %% of the bytes sent, want < 1 %%",
			sends, len(payload)>>10, got>>10, 100*float64(got)/float64(sent))
	}
}

// TestAbortReleasesQueuedSegments: the terminal transition gives back every
// per-segment buffer an aborted connection still had queued behind its window.
func TestAbortReleasesQueuedSegments(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	start := message.Outstanding()
	b := newBulkPair(t)
	b.k.RunFor(time.Second)
	if err := b.conn.Send(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if q := b.conn.Session().QueuedSegments(); q < 512 {
		t.Fatalf("only %d segments queued behind the window", q)
	}
	if held := message.Outstanding() - start; held < 512 {
		t.Fatalf("%d pooled buffers outstanding with 1 MiB queued", held)
	}
	b.conn.Abort()
	b.k.RunFor(time.Second) // what was in flight arrives
	if b.accepted == nil {
		t.Fatal("no connection accepted")
	}
	b.accepted.Abort()
	if got := message.Outstanding(); got != start {
		t.Errorf("%d pooled buffers outstanding after the abort, %d before the connection", got, start)
	}
}
