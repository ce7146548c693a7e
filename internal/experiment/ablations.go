package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/netsim"
	"adaptive/internal/reliable"
	"adaptive/internal/session"
	"adaptive/internal/workload"
)

// RunA1 ablates the delayed-acknowledgment timer (§4.1.1's negotiated "timer
// settings for delayed acknowledgments"): ack traffic versus completion time
// for a bulk reliable transfer, across coalescing windows.
func RunA1() []Table {
	t := Table{
		ID:      "A1",
		Title:   "Ablation — delayed acknowledgments (2 MB transfer, 10 Mbps, 20 ms RTT)",
		Headers: []string{"ack delay", "completion", "acks sent", "acks coalesced", "ack bytes saved"},
	}
	for _, d := range []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		t.Rows = append(t.Rows, runA1Case(d))
	}
	t.Notes = append(t.Notes,
		"expected shape: ack PDUs roughly halve with any delay (every-2nd-PDU rule) at no",
		"measurable completion cost while the delay stays well under the RTO floor")
	return []Table{t}
}

func runA1Case(delay time.Duration) []string {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 10 * time.Millisecond, MTU: 1500}
	w := newWorld(2, link, 9100, nil)
	const total = 2 << 20
	sink := must(w.Sink(w.Nodes[1], 80, total, nil))
	spec := adaptive.Spec{
		ConnMgmt: adaptive.ConnExplicit2Way, Recovery: adaptive.RecoverySelectiveRepeat,
		Window: adaptive.WindowFixed, WindowSize: 32, Order: adaptive.OrderSequenced,
		AckDelay: delay, RTOMin: 50 * time.Millisecond,
	}
	conn, err := w.Nodes[0].DialSpec(spec, w.Nodes[1].Addr(), 1000, 80)
	if err != nil {
		panic(err)
	}
	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	w.K.RunUntil(2 * time.Minute)
	acks := sink.Conn.Stats().SentPDUs // receiver sends only acks/naks on this flow
	coalesced := coalescedOf(sink.Conn.Session())
	label := fmtDur(delay)
	if delay == 0 {
		label = "immediate"
	}
	return []string{
		label,
		fmtDur(sink.DoneAt),
		fmt.Sprintf("%d", acks),
		fmt.Sprintf("%d", coalesced),
		fmt.Sprintf("%d", coalesced*28),
	}
}

// coalescedOf digs the coalesced-ack count out of the receiver's recovery
// mechanism.
func coalescedOf(s *session.Session) uint64 {
	if sr, ok := s.CurrentSlots().Recovery.(*reliable.SelectiveRepeat); ok {
		return sr.AcksCoalesced()
	}
	return 0
}

// RunA2 ablates the FEC group size (the redundancy/protection dial Stage II
// turns by loss tolerance): parity overhead versus residual loss at a fixed
// 2% channel loss.
func RunA2() []Table {
	t := Table{
		ID:      "A2",
		Title:   "Ablation — FEC group size at 2% loss (1 MB loss-tolerant stream)",
		Headers: []string{"group k", "parity overhead", "FEC repaired", "gaps abandoned", "residual byte loss"},
	}
	for _, k := range []int{2, 4, 8, 16, 32} {
		t.Rows = append(t.Rows, runA2Case(k))
	}
	t.Notes = append(t.Notes,
		"expected shape: overhead falls as 1/k while residual loss rises ~quadratically in k",
		"(a group survives only a single loss) — the Stage II mapping picks small k only",
		"for tight loss budgets")
	return []Table{t}
}

func runA2Case(k int) []string {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500, DropRate: 0.02}
	w := newWorld(2, link, int64(9200+k), nil)
	const total = 1 << 20
	sink := must(w.Sink(w.Nodes[1], 80, total, nil))
	spec := adaptive.Spec{
		ConnMgmt: adaptive.ConnImplicit, Recovery: adaptive.RecoveryFEC,
		Window: adaptive.WindowFixed, WindowSize: 64, Order: adaptive.OrderNone,
		FECGroup: k, LossTolerant: true, Graceful: false,
		GapDeadline: 30 * time.Millisecond, MSS: 1400,
	}
	conn, err := w.Nodes[0].DialSpec(spec, w.Nodes[1].Addr(), 1000, 80)
	if err != nil {
		panic(err)
	}
	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	w.K.RunUntil(2 * time.Minute)
	st := conn.Stats()
	rst := sink.Conn.Stats()
	dataPDUs := uint64((total + 1399) / 1400)
	var parity uint64
	if st.SentPDUs > dataPDUs {
		parity = st.SentPDUs - dataPDUs
	}
	residual := 1 - float64(sink.Bytes)/float64(total)
	if residual < 0 {
		residual = 0
	}
	return []string{
		fmt.Sprintf("%d", k),
		fmtPct(float64(parity) / float64(dataPDUs)),
		fmt.Sprintf("%d", rst.FECRecovered),
		fmt.Sprintf("%d", rst.GapsAbandoned),
		fmtPct(residual),
	}
}

// RunA3 ablates the NAK/retransmission throttles (DESIGN.md §5): with the
// per-sequence pacing guards off, every out-of-order arrival re-reports the
// same gap and the sender re-sends it, multiplying redundant traffic.
func RunA3() []Table {
	t := Table{
		ID:      "A3",
		Title:   "Ablation — NAK/retransmission throttling (1 MB, 3% loss, 40 ms RTT)",
		Headers: []string{"throttling", "completion", "retransmits", "naks", "redundant data PDUs"},
	}
	t.Rows = append(t.Rows, runA3Case(false))
	t.Rows = append(t.Rows, runA3Case(true))
	t.Notes = append(t.Notes,
		"expected shape: disabling the throttle multiplies retransmissions (every duplicate NAK",
		"triggers a resend) without improving completion time")
	return []Table{t}
}

func runA3Case(disable bool) []string {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 20 * time.Millisecond, MTU: 1500, DropRate: 0.03}
	w := newWorld(2, link, 9300, nil)
	const total = 1 << 20
	sink := must(w.Sink(w.Nodes[1], 80, total, nil))
	spec := adaptive.Spec{
		ConnMgmt: adaptive.ConnExplicit2Way, Recovery: adaptive.RecoverySelectiveRepeat,
		Window: adaptive.WindowFixed, WindowSize: 64, Order: adaptive.OrderSequenced,
	}
	conn, err := w.Nodes[0].DialSpec(spec, w.Nodes[1].Addr(), 1000, 80)
	if err != nil {
		panic(err)
	}
	if disable {
		// Disable on both ends (receiver re-NAKs, sender re-sends).
		conn.Session().CurrentSlots().Recovery.(*reliable.SelectiveRepeat).DisableThrottle = true
		w.K.Schedule(100*time.Millisecond, func() {
			if sink.Conn != nil {
				if sr, ok := sink.Conn.Session().CurrentSlots().Recovery.(*reliable.SelectiveRepeat); ok {
					sr.DisableThrottle = true
				}
			}
		})
	}
	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	w.K.RunUntil(5 * time.Minute)
	st := conn.Stats()
	naks := w.Repo.TotalCounter("rel.naks_sent")
	label := "enabled (production)"
	if disable {
		label = "disabled"
	}
	dataPDUs := uint64((total + 1399) / 1400)
	var redundant uint64
	if st.SentPDUs > dataPDUs {
		redundant = st.SentPDUs - dataPDUs
	}
	return []string{
		label,
		fmtDur(sink.DoneAt),
		fmt.Sprintf("%d", st.Retransmissions),
		fmt.Sprintf("%d", naks),
		fmt.Sprintf("%d", redundant),
	}
}
