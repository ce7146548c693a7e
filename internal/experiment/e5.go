package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/tko"
	"adaptive/internal/wire"
)

// discardOut satisfies session.Outbound with no work (per-PDU processing
// measurement isolates the receive pipeline).
type discardOut struct{}

func (discardOut) Transmit(pkt []byte, dst netapi.Addr) error { return nil }

// RunE5 measures the §4.2.2 customization trade-off: per-PDU receive-path
// cost through the dynamically-bound session (interface dispatch at every
// slot) versus the fully customized monomorphic fast path generated for
// static templates. Wall time is the honest measure — this is pure CPU.
func RunE5() []Table {
	t := Table{
		ID:      "E5",
		Title:   "Dynamic binding vs customization: receive-path cost per data PDU",
		Headers: []string{"pipeline", "ns/PDU", "relative"},
	}
	const n = 300_000
	dynNs := dynamicPathNs(n)
	custNs := customizedPathNs(n)
	rel := func(x float64) string { return fmt.Sprintf("%.2fx", x/custNs) }
	t.Rows = [][]string{
		{"dynamically bound session (segue-capable)", fmt.Sprintf("%.0f", dynNs), rel(dynNs)},
		{"customized static template (inlined)", fmt.Sprintf("%.0f", custNs), rel(custNs)},
	}
	t.Rows = append(t.Rows, []string{"dispatch overhead recovered by customization",
		fmt.Sprintf("%.0f", dynNs-custNs), fmtPct((dynNs - custNs) / dynNs)})
	t.Notes = append(t.Notes,
		"both paths verify CRC-32, parse the header, deliver in order, and generate a cumulative ack",
		"expected shape: customization removes measurable per-PDU overhead; flexibility costs a constant tax")
	return []Table{t}
}

// buildPackets pre-encodes n sequential data PDUs.
func buildPackets(n int, payload int) [][]byte {
	pkts := make([][]byte, n)
	body := make([]byte, payload)
	for i := range pkts {
		p := &wire.PDU{Header: wire.Header{Type: wire.TData, Seq: uint32(i), DstPort: 80, SrcPort: 1000}}
		p.Payload = message.NewFromBytes(body)
		wire.EncodeTo(p, wire.CkCRC32, func(pkt []byte) error {
			pkts[i] = append([]byte(nil), pkt...)
			return nil
		})
		p.ReleasePayload()
	}
	return pkts
}

func dynamicPathNs(n int) float64 {
	k := sim.NewKernel(1)
	net := netsim.New(k)
	clock := net.Clock()
	reg := tko.DefaultRegistry()
	spec := mechanism.DefaultSpec()
	spec.Checksum = wire.CkCRC32
	slots, err := reg.Build(&spec)
	if err != nil {
		panic(err)
	}
	s := session.New(session.Params{
		ConnID: 1, LocalPort: 80, PeerPort: 1000,
		PeerNet: netapi.Addr{Host: 2, Port: 7700},
		Spec:    &spec, Slots: slots,
		Clock: clock, Timers: event.NewManager(clock),
		Rand: rand.New(rand.NewSource(1)), Out: discardOut{},
	})
	s.SetReceiver(func(d session.Delivery) { d.Msg.Release() })
	s.Accept()

	pkts := buildPackets(n, 512)
	start := time.Now()
	for _, pkt := range pkts {
		// The stack's own receive step (protograph.onPacket): pooled PDU,
		// recycled by the session at the end of its lifecycle.
		pdu := wire.GetPDU()
		if err := wire.DecodeInto(pkt, pdu); err != nil {
			panic(err)
		}
		s.HandlePDU(pdu)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func customizedPathNs(n int) float64 {
	sink := 0
	c := tko.NewCustomizedReceiver(func(payload []byte, eom bool) { sink += len(payload) })
	pkts := buildPackets(n, 512)
	start := time.Now()
	for _, pkt := range pkts {
		c.Process(pkt)
	}
	if c.Delivered != uint64(n) {
		panic(fmt.Sprintf("customized path delivered %d of %d", c.Delivered, n))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
