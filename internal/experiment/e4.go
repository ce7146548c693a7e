package experiment

import (
	"fmt"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/workload"
)

// RunE4 reproduces the paper's second policy example (§3C): "switch from
// retransmission-based to forward error correction-based [reliability] when
// the round-trip delay increases beyond some threshold (e.g., when a route
// switches from a terrestrial link to a satellite link)". Mid-transfer the
// route moves from a 10 ms-RTT terrestrial path to a 550 ms-RTT satellite
// path with residual loss; the TSA-driven session is compared to static
// selective repeat.
func RunE4() []Table {
	t := Table{
		ID:      "E4",
		Title:   "Route switch to satellite: retransmission -> FEC (TSA on RTT threshold)",
		Headers: []string{"configuration", "completion", "goodput after switch", "retransmits after switch", "segues"},
	}
	t.Rows = append(t.Rows, runE4Case("static (terrestrial-provisioned SR)", false))
	t.Rows = append(t.Rows, runE4Case("adaptive (RTT>300ms -> window 512 + fec-hybrid)", true))
	t.Notes = append(t.Notes,
		"route switches at t=2s: 10ms RTT terrestrial -> 550ms RTT satellite, 1% loss throughout; 6 MB transfer",
		"expected shape: after the switch, FEC repairs losses without 550ms retransmission round trips,",
		"so the adaptive run completes sooner with far fewer retransmissions")
	return []Table{t}
}

func runE4Case(label string, adaptivePolicy bool) []string {
	mk := func(prop time.Duration) netsim.LinkConfig {
		return netsim.LinkConfig{Bandwidth: 10e6, PropDelay: prop, MTU: 1500, DropRate: 0.01, QueueLen: 1 << 20}
	}
	w := newWorld(2, mk(5*time.Millisecond), 5555, nil)
	w.SeedPaths()

	const total = 6 << 20
	var gotAtSwitch int
	sink := must(w.Sink(w.Nodes[1], 80, total, nil))

	// Both configurations start from the identical MANTTS-derived spec,
	// provisioned for the terrestrial path; only the adaptive run carries
	// TSA rules responding to the RTT jump (§2.2C names exactly these
	// long-delay adjustments: large flow-control windows plus a recovery
	// scheme that avoids the retransmission round trip).
	acd := &mantts.ACD{
		Participants: []netapi.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Quant:        mantts.QuantQoS{AvgThroughputBps: 8e6, PeakThroughputBps: 10e6},
		Qual:         mantts.QualQoS{Ordered: true},
		TMC:          mantts.TMC{SampleRate: 100 * time.Millisecond},
	}
	if adaptivePolicy {
		acd.TSA = []mantts.Rule{
			{
				Cond:    mantts.Cond{Metric: mantts.MetricRTT, Op: mantts.OpGT, Threshold: 0.3},
				Action:  mantts.Action{Kind: mantts.ActSetWindowSize, Size: 512},
				OneShot: true,
			},
			{
				Cond:    mantts.Cond{Metric: mantts.MetricRTT, Op: mantts.OpGT, Threshold: 0.3},
				Action:  mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoveryFECHybrid},
				OneShot: true,
			},
		}
	}
	conn, err := w.Nodes[0].Dial(acd, &adaptive.DialOptions{LocalPort: 1000})
	if err != nil {
		panic(err)
	}

	// Satellite switch at t=2s (both directions).
	var retxAtSwitch uint64
	w.K.Schedule(2*time.Second, func() {
		w.Mesh(mk(275 * time.Millisecond))
		gotAtSwitch = sink.Bytes
		retxAtSwitch = conn.Stats().Retransmissions
	})

	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	w.K.RunUntil(15 * time.Minute)

	st := conn.Stats()
	doneAt := sink.DoneAt
	var postGoodput float64
	if doneAt > 2*time.Second {
		postGoodput = float64(sink.Bytes-gotAtSwitch) * 8 / (doneAt - 2*time.Second).Seconds()
	}
	return []string{
		label,
		fmtDur(doneAt),
		fmtBps(postGoodput),
		fmt.Sprintf("%d", st.Retransmissions-retxAtSwitch),
		fmt.Sprintf("%d", st.Segues),
	}
}
