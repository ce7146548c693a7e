package udpnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestBatchReceiverDelivery drives traffic through the batched datapath end
// to end: a BatchReceiver must see every datagram exactly once, and the
// batch counters must account for them.
func TestBatchReceiverDelivery(t *testing.T) {
	p := New(WithBatch(16), WithFlushWindow(200*time.Microsecond), WithQueueLen(1<<12))
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}

	var pkts, batches atomic.Uint64
	var mu sync.Mutex
	seen := make(map[byte]bool)
	be := b.(netapi.BatchEndpoint)
	be.SetBatchReceiver(func(batch []netapi.Packet) {
		batches.Add(1)
		for i := range batch {
			pkts.Add(1)
			if len(batch[i].Data) > 0 {
				mu.Lock()
				seen[batch[i].Data[0]] = true
				mu.Unlock()
			}
			if batch[i].From.Host != 1 || batch[i].From.Port != 10 {
				t.Errorf("bad source %v", batch[i].From)
			}
		}
	})
	// A per-packet receiver installed alongside must NOT double-deliver.
	b.SetReceiver(func(pkt []byte, from netapi.Addr) {
		t.Error("per-packet receiver invoked despite batch receiver")
	})

	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i), 1, 2, 3}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return pkts.Load() == n }, "all packets")

	mu.Lock()
	uniq := len(seen)
	mu.Unlock()
	if uniq != n {
		t.Fatalf("saw %d distinct packets, want %d", uniq, n)
	}
	bc := p.BatchCounters()
	if bc.FramesIn < n || bc.BatchesIn == 0 || bc.BatchesIn > bc.DatagramsIn {
		t.Fatalf("counters out of whack: %+v", bc)
	}
	if bc.FramesOut < n || bc.BatchesOut == 0 {
		t.Fatalf("send-side counters out of whack: %+v", bc)
	}
	// Coalescing must have engaged: fewer wire datagrams than frames.
	if bc.DatagramsOut >= bc.FramesOut || bc.TrainFrames == 0 {
		t.Fatalf("no tx coalescing: %+v", bc)
	}
	if batches.Load() != bc.BatchesIn {
		t.Fatalf("upcall batches %d != counted batches %d", batches.Load(), bc.BatchesIn)
	}
}

// TestMulticastFanoutContinuesOnError is the satellite regression: a dead
// group member must not starve the rest of the fan-out. The failing member
// sorts first in the member list, so the old abort-on-first-error behavior
// would have delivered nothing.
func TestMulticastFanoutContinuesOnError(t *testing.T) {
	p := New()
	defer p.Close()

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}

	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	group := netapi.MulticastBit | 7
	// Member 99 was never opened or registered: its send must fail, and
	// member 2's must still happen.
	p.RegisterGroup(group, 99, 2)

	err = a.Send([]byte("hello"), netapi.Addr{Host: group, Port: 20})
	if err == nil {
		t.Fatal("want aggregated error for unreachable member, got nil")
	}
	if !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("unexpected error: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }, "delivery to live member")
	if got := p.BatchCounters().FanoutErrors; got != 1 {
		t.Fatalf("FanoutErrors = %d, want 1", got)
	}

	// errors.Join output must still unwrap to something inspectable.
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %T does not unwrap as a join", err)
	}
}

// TestWindowFlush checks the FlushWindow path: fewer packets than
// BatchSize must still leave the socket once the window elapses.
func TestWindowFlush(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(500*time.Microsecond))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 3; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 3 }, "window-flushed packets")
	if p.BatchCounters().FlushesWindow == 0 {
		t.Fatalf("expected a window flush: %+v", p.BatchCounters())
	}
}

// TestSizeFlush checks that a queue reaching BatchSize flushes immediately,
// without waiting for the (deliberately huge) window.
func TestSizeFlush(t *testing.T) {
	p := New(WithBatch(8), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 8; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 8 }, "size-flushed packets")
	bc := p.BatchCounters()
	if bc.FlushesSize == 0 {
		t.Fatalf("expected a size flush: %+v", bc)
	}
}

// TestExplicitFlush checks Endpoint.Flush forces a partial queue out.
func TestExplicitFlush(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	if err := a.Send([]byte("x"), netapi.Addr{Host: 2, Port: 20}); err != nil {
		t.Fatal(err)
	}
	if err := a.(*Endpoint).Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 }, "flushed packet")
}

// TestCloseFlushesTail checks that closing an endpoint drains its queued
// sends before the socket goes away (no silent loss on shutdown).
func TestCloseFlushesTail(t *testing.T) {
	p := New(WithBatch(32), WithFlushWindow(time.Hour))
	defer p.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	var got atomic.Uint64
	b.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })

	for i := 0; i < 5; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 5 }, "tail flush on close")
}

// TestSkippedCopies is the satellite regression for the reader's old
// unconditional copy: with no receiver installed the payload copy must be
// skipped (and counted), not allocated and then thrown away.
func TestSkippedCopies(t *testing.T) {
	p := New()
	defer p.Close()

	a, _ := p.Open(1, 10)
	if _, err := p.Open(2, 20); err != nil {
		t.Fatal(err)
	}
	// No receiver on host 2.
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte("nobody home"), netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return p.BatchCounters().SkippedCopies >= 10 }, "skipped copies")
}

// TestFramesCountedAsCarried forges a train whose header claims 1 000 frames
// while its bytes carry one. Every receive counter must book the one frame
// the reader found, not the claim: on the skip path (no receiver) and on the
// delivery path.
func TestFramesCountedAsCarried(t *testing.T) {
	p := New()
	defer p.Close()
	ep, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp4", nil, ep.(*Endpoint).sock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	forged := []byte{
		0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0xE8, // marker, count 1 000
		0, 0, 0, 1, 0, 10, // source host 1 port 10
		0, 3, 'a', 'b', 'c', // the only record
	}
	check := func(frames uint64, what string) {
		t.Helper()
		bc := p.BatchCounters()
		if bc.FramesIn != frames || ep.(*Endpoint).ReceivedCount() != frames ||
			p.MetricCounters()["udpnet.frames_in"]() != frames {
			t.Fatalf("%s: FramesIn %d, ReceivedCount %d, want %d",
				what, bc.FramesIn, ep.(*Endpoint).ReceivedCount(), frames)
		}
	}

	if _, err := conn.Write(forged); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return p.BatchCounters().DatagramsIn == 1 }, "skipped datagram")
	check(1, "no receiver")
	if got := p.BatchCounters().SkippedCopies; got != 1 {
		t.Fatalf("SkippedCopies = %d, want 1", got)
	}

	got := make(chan netapi.Packet, 2)
	ep.SetReceiver(func(pkt []byte, from netapi.Addr) {
		got <- netapi.Packet{Data: append([]byte(nil), pkt...), From: from}
	})
	if _, err := conn.Write(forged); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt.Data) != "abc" || pkt.From != (netapi.Addr{Host: 1, Port: 10}) {
			t.Fatalf("delivered %q from %v", pkt.Data, pkt.From)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forged train never delivered")
	}
	check(2, "delivered")
}

// TestStressSendBatchedReaderClose races concurrent senders against the
// batched reader and endpoint/provider close. Run under -race; the
// assertions are "no crash, no deadlock, errors only after close".
func TestStressSendBatchedReaderClose(t *testing.T) {
	p := New(WithBatch(16), WithFlushWindow(100*time.Microsecond), WithQueueLen(1<<12))

	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Uint64
	b.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		got.Add(uint64(len(batch)))
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	payload := make([]byte, 256)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.Send(payload, netapi.Addr{Host: 2, Port: 20}) // errors fine after close
			}
		}()
	}
	// Let traffic flow, then tear down while the senders are still running.
	waitFor(t, 5*time.Second, func() bool { return got.Load() > 1000 }, "steady traffic")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	p.Close()

	// After Close, sends must fail cleanly rather than panic.
	if err := a.Send(payload, netapi.Addr{Host: 2, Port: 20}); err == nil {
		t.Fatal("send after close should error")
	}
}

// TestPerPacketModeStillWorks pins the FlushWindow=0 configuration (the A/B
// baseline): per-packet writes, no flush machinery engaged. It sends to a
// local endpoint and to a peer known only through RegisterHost, on another
// provider as on another machine: resolving that address yields a 4-in-6
// form, which the udp4 socket refuses unless the registry stores it unmapped.
func TestPerPacketModeStillWorks(t *testing.T) {
	p := New(WithBatch(1), WithFlushWindow(0))
	defer p.Close()
	remote := New()
	defer remote.Close()

	a, _ := p.Open(1, 10)
	b, _ := p.Open(2, 20)
	c, err := remote.Open(3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterHost(3, c.(*Endpoint).sock.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []netapi.Endpoint{b, c} {
		var got atomic.Uint64
		dst.SetReceiver(func(pkt []byte, from netapi.Addr) { got.Add(1) })
		for i := 0; i < 50; i++ {
			if err := a.Send([]byte{byte(i)}, dst.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 5*time.Second, func() bool { return got.Load() == 50 }, "per-packet delivery")
	}
	bc := p.BatchCounters()
	if bc.BatchesOut != 0 || bc.FlushesSize != 0 || bc.FlushesWindow != 0 {
		t.Fatalf("flush machinery engaged in per-packet mode: %+v", bc)
	}
}

// TestFlushRehomesReregisteredPeer is the stale-address regression: frames
// already sitting on the flush queue when a peer re-registers (restart on a
// new socket) must flush to the peer's NEW address. The old behavior used the
// *hostAddr captured at enqueue time, silently black-holing the queued tail
// into the dead socket.
func TestFlushRehomesReregisteredPeer(t *testing.T) {
	// A flush window far beyond the test keeps frames queued until the
	// explicit Flush below.
	src := New(WithBatch(64), WithFlushWindow(time.Hour))
	defer src.Close()
	a, err := src.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Two incarnations of host 2 on separate providers: the pre-restart
	// socket (which must receive nothing) and the post-restart one.
	old := New()
	defer old.Close()
	oldEp, err := old.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var oldGot atomic.Uint64
	oldEp.SetReceiver(func(pkt []byte, from netapi.Addr) { oldGot.Add(1) })

	fresh := New()
	defer fresh.Close()
	freshEp, err := fresh.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	var freshGot atomic.Uint64
	freshEp.SetReceiver(func(pkt []byte, from netapi.Addr) { freshGot.Add(1) })

	if err := src.RegisterHost(2, oldEp.(*Endpoint).sock.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}

	// Peer "restarts": host 2 re-registers at the new socket, then the
	// queued tail flushes.
	if err := src.RegisterHost(2, freshEp.(*Endpoint).sock.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.(*Endpoint).Flush(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, func() bool { return freshGot.Load() == n }, "rehomed delivery")
	if got := oldGot.Load(); got != 0 {
		t.Fatalf("dead socket received %d frames, want 0", got)
	}
	if re := src.MetricCounters()["udpnet.rehomed_frames"](); re != n {
		t.Fatalf("rehomed_frames = %d, want %d", re, n)
	}
}

// TestForgedTrainCostsOneSlab dispatches the densest forged train — 30 714
// empty records under a header claiming them all — to an endpoint with a batch
// receiver. The upcall must see no more than maxBatch frames, the most a
// udpnet sender packs, and every frame must be a view into the one slab the
// datagram was copied into, not a slab of its own.
func TestForgedTrainCostsOneSlab(t *testing.T) {
	p := New()
	defer p.Close()
	ep, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	ep.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		if len(batch) > maxBatch {
			got <- fmt.Errorf("upcall saw %d frames, want at most %d", len(batch), maxBatch)
			return
		}
		// A view's capacity runs to the end of its slab, so views into one
		// slab share their last byte.
		end := func(d []byte) *byte { return &d[:cap(d)][cap(d)-1] }
		for i := range batch {
			if end(batch[i].Data) != end(batch[0].Data) {
				got <- fmt.Errorf("frame %d is not in frame 0's slab", i)
				return
			}
		}
		got <- nil
	})
	ep.(*Endpoint).dispatch(densestTrain())
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forged train never delivered")
	}
}

// TestSendKeepsOrderAndBytes pushes random interleavings of three
// destinations through a batched endpoint, in runs of random length and
// payload size: runs longer than the batch, and runs whose bytes pass
// maxTrainBytes. Each destination must receive exactly what was sent to it,
// in order, and FramesOut must count every frame.
func TestSendKeepsOrderAndBytes(t *testing.T) {
	const batch = 8
	p := New(WithBatch(batch), WithFlushWindow(200*time.Microsecond),
		WithQueueLen(1<<12), WithSocketBuffers(4<<20, 4<<20))
	defer p.Close()
	src, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	const dsts = 3
	var mu sync.Mutex
	got := make([][][]byte, dsts)
	var gotBytes atomic.Int64
	for d := 0; d < dsts; d++ {
		ep, err := p.Open(netapi.HostID(2+d), 20)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetReceiver(func(pkt []byte, from netapi.Addr) {
			if from != src.LocalAddr() {
				t.Errorf("frame from %v", from)
			}
			mu.Lock()
			got[d] = append(got[d], append([]byte(nil), pkt...))
			mu.Unlock()
			gotBytes.Add(int64(len(pkt)))
		})
	}

	rng := rand.New(rand.NewPCG(1, 2))
	want := make([][][]byte, dsts)
	var frames, sentBytes int64
	for run := 0; run < 120; run++ {
		d := rng.IntN(dsts)
		n := 1 + rng.IntN(3*batch)
		size := rng.IntN(1500)
		if run%10 == 9 {
			size = maxTrainBytes / 4 // four of these pass the train's cap
		}
		for i := 0; i < n; i++ {
			// Let the receivers drain before the socket buffers could
			// overflow.
			if sentBytes-gotBytes.Load() > 128<<10 {
				if err := src.(*Endpoint).Flush(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, func() bool { return gotBytes.Load() == sentBytes }, "receivers to drain")
			}
			pkt := make([]byte, size)
			for k := range pkt {
				pkt[k] = byte(rng.Uint32())
			}
			if err := src.Send(pkt, netapi.Addr{Host: netapi.HostID(2 + d), Port: 20}); err != nil {
				t.Fatal(err)
			}
			want[d] = append(want[d], pkt)
			frames++
			sentBytes += int64(size)
		}
	}
	if err := src.(*Endpoint).Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return gotBytes.Load() == sentBytes }, "every frame")
	mu.Lock()
	defer mu.Unlock()
	for d := range want {
		if len(got[d]) != len(want[d]) {
			t.Fatalf("destination %d received %d frames, want %d", d, len(got[d]), len(want[d]))
		}
		for i := range want[d] {
			if !bytes.Equal(got[d][i], want[d][i]) {
				t.Fatalf("destination %d frame %d differs from what was sent", d, i)
			}
		}
	}
	if bc := p.BatchCounters(); bc.FramesOut != uint64(frames) || bc.TrainFrames == 0 {
		t.Fatalf("FramesOut %d for %d frames sent (TrainFrames %d)", bc.FramesOut, frames, bc.TrainFrames)
	}
}

// TestReplyFlush gives the endpoints a 500 ms flush window and host 2 a batch
// receiver that replies to each frame from inside its upcall. An ack-typed
// reply must reach host 1 within 100 ms, written by a reply flush; a
// data-typed reply, and a datagram holding an ack and data, must wait out the
// window, as every datagram did before reply flushes.
func TestReplyFlush(t *testing.T) {
	const window = 500 * time.Millisecond
	p := New(WithBatch(32), WithFlushWindow(window))
	defer p.Close()
	a, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	ack := []byte{wire.Version<<4 | byte(wire.TAck), 'a'}
	data := []byte{wire.Version<<4 | byte(wire.TData), 'd'}
	var replies [][]byte // written and read on the loop only
	b.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		for _, r := range replies {
			if err := b.Send(r, batch[0].From); err != nil {
				t.Error(err)
			}
		}
	})
	arrived := make(chan time.Time, 4)
	a.SetReceiver(func([]byte, netapi.Addr) { arrived <- time.Now() })

	for _, tc := range []struct {
		name    string
		replies [][]byte
		prompt  bool
	}{
		{"ack", [][]byte{ack}, true},
		{"data", [][]byte{data}, false},
		{"ack+data", [][]byte{ack, data}, false},
	} {
		p.Wait(func() { replies = tc.replies })
		before := p.BatchCounters().FlushesReply
		start := time.Now()
		if err := a.Send(data, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if err := a.(*Endpoint).Flush(); err != nil {
			t.Fatal(err)
		}
		var first time.Time
		for i := range tc.replies {
			select {
			case at := <-arrived:
				if i == 0 {
					first = at
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: reply frame %d never arrived", tc.name, i)
			}
		}
		took := first.Sub(start)
		flushes := p.BatchCounters().FlushesReply - before
		t.Logf("%s: reply after %v, %d reply flushes", tc.name, took, flushes)
		if tc.prompt && (took > 100*time.Millisecond || flushes != 1) {
			t.Fatalf("%s: reply after %v with %d reply flushes, want under 100ms and 1", tc.name, took, flushes)
		}
		if !tc.prompt && (took < window-50*time.Millisecond || flushes != 0) {
			t.Fatalf("%s: reply after %v with %d reply flushes, want the %v window and 0", tc.name, took, flushes, window)
		}
	}
}

// TestKernelDropsCounted floods an endpoint whose receive buffer holds about
// one 60 KiB datagram with such datagrams from a plain UDP socket, so the
// kernel drops some before the reader sees them. Once the counters settle,
// every datagram written is in DatagramsIn or in KernelDrops, and closing the
// endpoint keeps its count.
func TestKernelDropsCounted(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH == "386" {
		t.Skip("kernel drops are read on linux only")
	}
	p := New(WithSocketBuffers(4096, 0))
	defer p.Close()
	ep, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetReceiver(func([]byte, netapi.Addr) {})
	conn, err := net.DialUDP("udp4", nil, ep.(*Endpoint).sock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dgram := make([]byte, 60<<10)
	putSrc(dgram, netapi.Addr{Host: 1, Port: 10})
	var sent uint64
	for i := 0; i < 200; i++ {
		if _, err := conn.Write(dgram); err == nil {
			sent++
		}
	}
	var bc BatchCounters
	deadline := time.Now().Add(5 * time.Second)
	for bc = p.BatchCounters(); bc.DatagramsIn+bc.KernelDrops != sent; bc = p.BatchCounters() {
		if time.Now().After(deadline) {
			t.Fatalf("%d datagrams written, DatagramsIn %d + KernelDrops %d", sent, bc.DatagramsIn, bc.KernelDrops)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d datagrams written: %d read, %d dropped by the kernel", sent, bc.DatagramsIn, bc.KernelDrops)
	if bc.KernelDrops == 0 {
		t.Fatal("no kernel drop counted")
	}
	if got := p.MetricCounters()["udpnet.kernel_drops"](); got != bc.KernelDrops {
		t.Fatalf("udpnet.kernel_drops = %d, BatchCounters.KernelDrops = %d", got, bc.KernelDrops)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.BatchCounters().KernelDrops; got != bc.KernelDrops {
		t.Fatalf("KernelDrops %d after Close, %d before", got, bc.KernelDrops)
	}
}
