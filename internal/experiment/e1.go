package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/workload"
)

// RunE1 compares the error-recovery mechanisms across packet-loss rates —
// the experiment the paper names in §5 ("measuring the effect of switching
// from selective repeat to go-back-n retransmission") plus the FEC
// alternative from §3C. Fixed 1 MB reliable transfer; the loss-tolerant
// pure-FEC row runs the same traffic and reports residual loss instead.
func RunE1() []Table {
	t := Table{
		ID:      "E1",
		Title:   "Retransmission strategies vs loss rate (1 MB transfer, 10 Mbps, 20 ms RTT)",
		Headers: []string{"loss rate", "recovery", "completion", "goodput", "retransmits", "redundant PDUs", "residual loss"},
	}
	losses := []float64{0, 0.001, 0.01, 0.03, 0.08}
	recoveries := []adaptive.Spec{
		{Recovery: adaptive.RecoveryGoBackN},
		{Recovery: adaptive.RecoverySelectiveRepeat},
		{Recovery: adaptive.RecoveryFECHybrid, FECGroup: 8},
		{Recovery: adaptive.RecoveryFEC, FECGroup: 8, LossTolerant: true},
	}
	for _, loss := range losses {
		for _, base := range recoveries {
			row := runE1Case(loss, base)
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: selective-repeat >= go-back-n everywhere, gap grows with loss;",
		"fec-hybrid converges fastest at high loss (repairs without a round trip);",
		"pure fec never retransmits — completion is loss-independent, residual loss is the price")
	return []Table{t}
}

func runE1Case(loss float64, base adaptive.Spec) []string {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 10 * time.Millisecond, MTU: 1500, DropRate: loss}
	w := newWorld(2, link, int64(1000+int(loss*1e4)), nil)
	const total = 1 << 20
	m := workload.NewMeter(w.K)
	sink := must(w.Sink(w.Nodes[1], 80, total*99/100, m))
	spec := base
	spec.ConnMgmt = adaptive.ConnExplicit2Way
	spec.Window = adaptive.WindowFixed
	spec.WindowSize = 32
	spec.Order = adaptive.OrderSequenced
	spec.Graceful = false
	if spec.Recovery == adaptive.RecoveryFEC {
		spec.Order = adaptive.OrderNone
		spec.GapDeadline = 30 * time.Millisecond
	}
	conn, err := w.Nodes[0].DialSpec(spec, w.Nodes[1].Addr(), 1000, 80)
	if err != nil {
		panic(err)
	}
	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 16 << 10}
	g.Start(w.K)
	w.K.RunUntil(5 * time.Minute)

	st := conn.Stats()
	gotBytes := sink.Bytes
	completion := sink.DoneAt
	if completion == 0 {
		// Loss-tolerant runs may never hit the byte threshold; the last
		// delivery marks the end of the (gappy) stream.
		completion = m.LastAt
	}
	residual := 1 - float64(gotBytes)/float64(total)
	if residual < 0 {
		residual = 0
	}
	goodput := 0.0
	if completion > 0 {
		goodput = float64(gotBytes) * 8 / completion.Seconds()
	}
	dataPDUs := uint64((total + 1399) / 1400)
	var redundantPDUs uint64
	if st.SentPDUs > dataPDUs {
		redundantPDUs = st.SentPDUs - dataPDUs
	}
	return []string{
		fmtPct(loss),
		spec.Recovery.String(),
		fmtDur(completion),
		fmtBps(goodput),
		fmt.Sprintf("%d", st.Retransmissions),
		fmt.Sprintf("%d", redundantPDUs),
		fmtPct(residual),
	}
}
