package protograph

import (
	"testing"
	"time"

	"adaptive/internal/mechanism"
	"adaptive/internal/message"
)

// TestSharedTierOpsPerDataPDU pins where the datapath's pooled objects
// recycle once traffic is steady on a netsim session pair: on the kernel
// loop's own lists. Of the ~14 pooled gets and puts a data PDU costs (segment
// buffer and view, PDU structs at both ends, the netsim slab and flight, the
// ack's encode slab, the receive copy), only the application's Release of
// the delivered message reaches the shared tier, and the one buffer per PDU
// that Release takes away from the loop comes back the same way. Poison mode
// counts shared-tier operations.
func TestSharedTierOpsPerDataPDU(t *testing.T) {
	defer message.SetPoison(message.SetPoison(true))
	p := newPair(t, fastLink())
	spec := mechanism.DefaultSpec()
	s, _, err := p.a.CreateActiveSession(&spec, p.b.LocalAddr(), 1000, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Open()
	chunk := make([]byte, 1000) // one segment per millisecond: 8 of the link's 10 Mbit/s
	tick := p.a.Timers().SchedulePeriodic(time.Millisecond, time.Millisecond, func() { s.Send(chunk) })
	defer tick.Cancel()

	p.k.RunUntil(200 * time.Millisecond) // establish, fill the window, warm the lists
	if p.accepted == nil || p.accepted.DeliveredMsg == 0 {
		t.Fatal("no data delivered during warm-up")
	}
	ops, pdus := message.SharedOps(), p.accepted.DeliveredMsg
	p.k.RunUntil(time.Second)
	ops, pdus = message.SharedOps()-ops, p.accepted.DeliveredMsg-pdus
	if pdus < 700 {
		t.Fatalf("only %d data PDUs delivered in 0.8 s at one per millisecond", pdus)
	}
	perPDU := float64(ops) / float64(pdus)
	t.Logf("%d shared-tier operations over %d data PDUs: %.2f per PDU", ops, pdus, perPDU)
	if perPDU > 3 {
		t.Fatalf("%.2f shared-tier operations per data PDU, want <= 3", perPDU)
	}
}
