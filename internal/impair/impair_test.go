package impair

import (
	"sync/atomic"
	"testing"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/sim"
	"adaptive/internal/udpnet"
)

// testNet builds a two-host simulated network and returns the kernel, the
// wrapped provider, and the host IDs.
func testNet(t *testing.T, cfg Config) (*sim.Kernel, *Provider, netapi.HostID, netapi.HostID) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netsim.New(k)
	a, b := net.AddHost(), net.AddHost()
	link := netsim.LinkConfig{Bandwidth: 100e6, PropDelay: time.Millisecond, MTU: 1500, QueueLen: 10000}
	net.SetRoute(a.ID(), b.ID(), net.NewLink(link))
	net.SetRoute(b.ID(), a.ID(), net.NewLink(link))
	return k, Wrap(net, cfg), a.ID(), b.ID()
}

// TestLossIsSeededAndCounted sends a fixed batch through a 30% lossy shim
// and checks the delivered count matches the drop counter exactly, and that
// the loss rate is in the statistical neighborhood of the configuration.
func TestLossIsSeededAndCounted(t *testing.T) {
	const n = 2000
	k, p, ha, hb := testNet(t, Config{Seed: 9, Loss: 0.3})
	src, err := p.Open(ha, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Open(hb, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	dst.SetReceiver(func([]byte, netapi.Addr) { got++ })
	for i := 0; i < n; i++ {
		if err := src.Send([]byte{byte(i)}, dst.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	k.RunUntil(time.Second)
	c := p.Counters()
	if int(c.Dropped)+got != n {
		t.Fatalf("dropped %d + delivered %d != sent %d", c.Dropped, got, n)
	}
	if c.Dropped < n/5 || c.Dropped > n/2 {
		t.Fatalf("dropped %d of %d: far from the configured 30%%", c.Dropped, n)
	}
}

// TestDuplicateAndReorder checks duplication delivers extra copies and
// reordering delivers late but intact.
func TestDuplicateAndReorder(t *testing.T) {
	const n = 1000
	k, p, ha, hb := testNet(t, Config{Seed: 5, DupRate: 0.2, ReorderRate: 0.2, ReorderDelay: 10 * time.Millisecond})
	src, _ := p.Open(ha, 1)
	dst, _ := p.Open(hb, 2)
	var got int
	dst.SetReceiver(func([]byte, netapi.Addr) { got++ })
	for i := 0; i < n; i++ {
		src.Send([]byte{1}, dst.LocalAddr())
	}
	k.RunUntil(time.Second)
	c := p.Counters()
	if c.Duplicated == 0 || c.Reordered == 0 {
		t.Fatalf("shim idle: %+v", c)
	}
	if want := n + int(c.Duplicated); got != want {
		t.Fatalf("delivered %d, want %d (n=%d + %d duplicates)", got, want, n, c.Duplicated)
	}
}

// TestBatchReceiverPassThrough checks the shim forwards SetBatchReceiver to
// a batching inner provider (udpnet): batched deliveries must flow through
// the impairment endpoint untouched, since the shim impairs sends only.
func TestBatchReceiverPassThrough(t *testing.T) {
	inner := udpnet.New(udpnet.WithBatch(8), udpnet.WithFlushWindow(100*time.Microsecond))
	defer inner.Close()
	p := Wrap(inner, Config{Seed: 5})

	src, err := p.Open(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Open(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	be, ok := dst.(netapi.BatchEndpoint)
	if !ok {
		t.Fatal("impaired endpoint over a batching provider must expose BatchEndpoint")
	}
	var got atomic.Uint64
	be.SetBatchReceiver(func(batch []netapi.Packet) { got.Add(uint64(len(batch))) })

	const n = 50
	for i := 0; i < n; i++ {
		if err := src.Send([]byte{byte(i)}, netapi.Addr{Host: 2, Port: 20}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("batched delivery through shim: got %d of %d", got.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
