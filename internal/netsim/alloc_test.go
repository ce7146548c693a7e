package netsim

import (
	"testing"
	"time"

	"adaptive/internal/netapi"
)

// TestForwardingZeroAlloc pins one packet's whole trip through the simulated
// network — Send, link serialization, the batched delivery queue, the
// receiver upcall — at zero heap allocations once the packet and event pools
// are warm.
func TestForwardingZeroAlloc(t *testing.T) {
	n, a, b, _, _ := twoHosts(t, LinkConfig{Bandwidth: 1e9, PropDelay: time.Microsecond, MTU: 1500})
	epA, _ := n.Open(a.ID(), 1)
	epB, _ := n.Open(b.ID(), 2)
	delivered := 0
	epB.SetReceiver(func([]byte, netapi.Addr) { delivered++ })
	pkt := make([]byte, 1000)
	forward := func() {
		epA.Send(pkt, epB.LocalAddr())
		n.Kernel().Run()
	}
	forward()
	if allocs := testing.AllocsPerRun(1000, forward); allocs != 0 {
		t.Fatalf("forwarding: %v allocs/pkt, want 0", allocs)
	}
	if delivered != 1002 { // warm-up + AllocsPerRun's own warm-up + 1000 runs
		t.Fatalf("delivered %d of 1002 packets — measurement exercised nothing", delivered)
	}
}
