package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/trace"
	"adaptive/internal/workload"
)

// RunE3 reproduces the paper's first policy example (§3C): when congestion
// pushes loss past a threshold, switch the retransmission mechanism from
// selective repeat to go-back-n (shedding receiver buffering); when
// congestion subsides, restore selective repeat. The adaptive session is
// compared against both static configurations over a run with a congested
// middle phase (cross traffic saturating the bottleneck).
func RunE3() []Table {
	t := Table{
		ID:      "E3",
		Title:   "Congestion policy: selective-repeat <-> go-back-n (congested middle phase)",
		Headers: []string{"configuration", "completion", "goodput", "retransmits", "peak rcv buffer", "segues"},
	}
	t.Rows = append(t.Rows, runE3Case("static selective-repeat", "sr", nil))
	t.Rows = append(t.Rows, runE3Case("static go-back-n", "gbn", nil))
	t.Rows = append(t.Rows, runE3Case("adaptive (TSA policy)", "adaptive", nil))
	t.Notes = append(t.Notes,
		"phases: 0-1s clean, 1-4s cross traffic at 95% of the bottleneck, then clean until done; 4 MB transfer",
		"expected shape: the policy holds selective repeat on the clean phases, runs go-back-n through the",
		"congested window (shedding receiver buffering, the paper's stated motive), and restores SR after —",
		"completing with the best static configuration at a fraction of static-SR's peak receiver buffer")
	return []Table{t}
}

// runE3Case runs one configuration; a non-nil tracer flight-records the run
// (this is the reference trace adaptivetrace renders to Chrome format).
func runE3Case(label, mode string, tracer *trace.Recorder) []string {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 10 * time.Millisecond, MTU: 1500, QueueLen: 64000}
	w := newWorld(2, link, 4242, tracer)
	w.SeedPaths()

	const total = 4 << 20
	sink := must(w.Sink(w.Nodes[1], 80, total, nil))
	// Sample receiver buffer occupancy.
	var peakBuf int
	w.Nodes[1].Stack().Timers().SchedulePeriodic(10*time.Millisecond, 10*time.Millisecond, func() {
		if sink.Conn != nil {
			if n := sink.Conn.Session().State().RcvBuf.Len(); n > peakBuf {
				peakBuf = n
			}
		}
	})

	// All three configurations start from the identical MANTTS-derived
	// spec; only the presence of TSA rules (and the forced recovery for
	// the static go-back-n row) differs.
	acd := &mantts.ACD{
		Participants: []netapi.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Quant:        mantts.QuantQoS{AvgThroughputBps: 8e6, PeakThroughputBps: 10e6},
		Qual:         mantts.QualQoS{Ordered: true},
		TMC:          mantts.TMC{SampleRate: 100 * time.Millisecond},
	}
	if mode == "adaptive" {
		acd.TSA = []mantts.Rule{
			{
				Cond:     mantts.Cond{Metric: mantts.MetricRetransmitRate, Op: mantts.OpGT, Threshold: 0.08},
				Action:   mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoveryGoBackN},
				Cooldown: 2 * time.Second,
			},
			{
				Cond:     mantts.Cond{Metric: mantts.MetricRetransmitRate, Op: mantts.OpLT, Threshold: 0.005},
				Action:   mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoverySelectiveRepeat},
				Cooldown: 2 * time.Second,
			},
		}
	}
	conn, err := w.Nodes[0].Dial(acd, &adaptive.DialOptions{LocalPort: 1000})
	if err != nil {
		panic(err)
	}
	if mode == "gbn" {
		// Install the static go-back-n configuration once the handshake
		// settles (reconfigurations racing the handshake are refused by
		// the negotiation logic).
		w.K.Schedule(100*time.Millisecond, func() {
			conn.Reconfigure(func(s *adaptive.Spec) { s.Recovery = adaptive.RecoveryGoBackN })
		})
	}

	// Congestion phase: cross traffic at 95% of the bottleneck during
	// t in [1s, 4s).
	l := w.Link(0, 1)
	w.K.Schedule(time.Second, func() { l.StartCrossTraffic(9.5e6, 1000) })
	w.K.Schedule(4*time.Second, func() { l.StartCrossTraffic(0, 0) })

	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	w.K.RunUntil(10 * time.Minute)

	st := conn.Stats()
	doneAt := sink.DoneAt
	goodput := 0.0
	if doneAt > 0 {
		goodput = float64(total) * 8 / doneAt.Seconds()
	}
	return []string{
		label,
		fmtDur(doneAt),
		fmtBps(goodput),
		fmt.Sprintf("%d", st.Retransmissions),
		fmt.Sprintf("%d PDUs", peakBuf),
		fmt.Sprintf("%d", st.Segues),
	}
}
