package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
	"adaptive/internal/workload"
)

// RunE9 is the fault sweep: the same bulk transfer driven through three
// injected fault profiles (Gilbert–Elliott burst loss, a link flap, and a
// transient partition), each with and without TSA policy rules. The paper's
// run-time reconfiguration exists precisely for these conditions (§3C, §5);
// this experiment finally provokes them with the netsim fault-injection
// subsystem instead of static link parameters, and demonstrates the
// policy-driven segue end to end.
//
// Every fault timeline is a declarative FaultPlan executed on the simulation
// kernel, so a given (seed, plan) pair reproduces byte-for-byte; the golden
// table and TestTraceE9SeedDeterminism (record-for-record) hold it to that.
func RunE9() []Table {
	t := Table{
		ID:    "E9",
		Title: "Fault sweep: burst loss, link flap, partition (FaultPlan-driven adaptation)",
		Headers: []string{"fault profile", "configuration", "completion", "delivered",
			"retransmits", "fec repaired", "segues", "policy actions", "lat p50", "lat p99", "lat p999"},
	}

	profiles := []string{"burst loss (GE ~4.5%)", "link flap (300ms)", "partition (1s)"}
	var burstTransitions []string
	for _, prof := range profiles {
		row, _ := runE9Case(prof, false, nil, false)
		t.Rows = append(t.Rows, row)
		row, trans := runE9Case(prof, true, nil, false)
		t.Rows = append(t.Rows, row)
		if strings.HasPrefix(prof, "burst") {
			burstTransitions = trans
		}
	}

	t.Notes = append(t.Notes,
		"fault plans: burst loss attaches a Gilbert–Elliott profile (mean burst 5 pkts) to the data link",
		"for t in [1s,4s); link flap takes the data link down for 300ms at t=1.5s; partition severs",
		"both hosts for 1s at t=1.5s — all dropped silently, so the transport sees loss, not errors",
		fmt.Sprintf("policy segues under burst loss (UNITES): %s", strings.Join(burstTransitions, ", ")),
	)
	return []Table{t}
}

// runE9Case runs one (fault profile, configuration) cell and returns the
// table row and the segue-transition counters it recorded. A non-nil tracer
// flight-records the run (kernel + nodes); perturb injects one extra no-op
// kernel event at t=2s — the single-event disturbance the trace-diff
// regression test must localize.
func runE9Case(profile string, adaptivePolicy bool, tracer *trace.Recorder, perturb bool) ([]string, []string) {
	link := netsim.LinkConfig{Bandwidth: 10e6, PropDelay: 5 * time.Millisecond, MTU: 1500, QueueLen: 1 << 20}
	w := newWorld(2, link, 9090, tracer)
	if perturb {
		w.K.Schedule(2*time.Second, func() {})
	}
	w.SeedPaths()

	// Declarative fault timeline on the data link (host0 -> host1).
	plan := w.Net.NewFaultPlan()
	switch {
	case strings.HasPrefix(profile, "burst"):
		// Stationary loss ~= 0.09 * 0.5 ~= 4.5%, mean burst 1/0.2 = 5 pkts,
		// plus light reordering and bit corruption to exercise the checksum.
		plan.Impair(1*time.Second, w.Link(0, 1), netsim.Impairment{
			PGoodToBad: 0.02, PBadToGood: 0.2,
			LossGood: 0.001, LossBad: 0.5,
			ReorderRate: 0.002, ReorderDelay: 20 * time.Millisecond,
			CorruptRate: 0.001,
		})
		plan.ClearImpair(4*time.Second, w.Link(0, 1))
	case strings.HasPrefix(profile, "link flap"):
		plan.LinkDown(1500*time.Millisecond, w.Link(0, 1))
		plan.LinkUp(1800*time.Millisecond, w.Link(0, 1))
	default: // partition
		plan.Partition(1500*time.Millisecond,
			w.Hosts[:1], w.Hosts[1:])
		plan.Heal(2500 * time.Millisecond)
	}
	check(plan.Install())

	const total = 4 << 20
	meter := workload.NewMeter(w.K)
	sink := must(w.Sink(w.Nodes[1], 80, total, meter))

	// Both configurations derive the identical spec; the adaptive one adds
	// the paper's degradation rules: sustained retransmission pressure from
	// burst loss switches the recovery scheme to FEC (§3C), while milder
	// pressure falls back from selective repeat to go-back-n (§5).
	acd := &mantts.ACD{
		Participants: []netapi.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Quant:        mantts.QuantQoS{AvgThroughputBps: 8e6, PeakThroughputBps: 10e6},
		Qual:         mantts.QualQoS{Ordered: true},
		TMC:          mantts.TMC{SampleRate: 100 * time.Millisecond},
	}
	if adaptivePolicy {
		acd.TSA = []mantts.Rule{
			// Rules fire in order within one evaluation, so the milder
			// go-back-n step precedes the FEC escalation when a loss burst
			// blows through both thresholds in a single TMC sample.
			{
				Cond:    mantts.Cond{Metric: mantts.MetricRetransmitRate, Op: mantts.OpGT, Threshold: 0.02},
				Action:  mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoveryGoBackN},
				OneShot: true,
			},
			{
				Cond:    mantts.Cond{Metric: mantts.MetricRetransmitRate, Op: mantts.OpGT, Threshold: 0.06},
				Action:  mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoveryFECHybrid},
				OneShot: true,
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

	g := &workload.Bulk{Out: conn, TotalSize: total, ChunkSize: 64 << 10}
	g.Start(w.K)
	// Step the clock in 1s increments and stop shortly after the transfer
	// completes — running a long idle tail would only accumulate no-op
	// policy firings from the calm-restore rule.
	w.Until(time.Second, 60*time.Second, func() bool { return sink.DoneAt > 0 })
	w.K.RunFor(2 * time.Second)

	st := conn.Stats()
	label := "static (MANTTS-derived, no rules)"
	if adaptivePolicy {
		label = "adaptive (TSA on retransmit rate)"
	}
	snap := w.Repo.Snapshot()
	row := []string{
		profile, label,
		fmtDur(sink.DoneAt),
		fmt.Sprintf("%.1f MB", float64(sink.Bytes)/(1<<20)),
		fmt.Sprintf("%d", st.Retransmissions),
		fmt.Sprintf("%d", st.FECRecovered),
		fmt.Sprintf("%d", st.Segues),
		fmt.Sprintf("%d", sumCounterPrefix(snap, "policy.action.")),
		fmtQuantile(meter.Latency, 0.5),
		fmtQuantile(meter.Latency, 0.99),
		fmtQuantile(meter.Latency, 0.999),
	}
	return row, segueTransitions(snap)
}

// sumCounterPrefix totals every systemwide counter under the prefix.
func sumCounterPrefix(snap unites.Snapshot, prefix string) uint64 {
	var n uint64
	for k, v := range snap.Systemwide {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// segueTransitions lists the per-transition segue counters a run recorded
// (e.g. "session.segue.recovery.selective-repeat->fec-hybrid x1").
func segueTransitions(snap unites.Snapshot) []string {
	var out []string
	for k, v := range snap.Systemwide {
		if strings.HasPrefix(k, "session.segue.") {
			out = append(out, fmt.Sprintf("%s x%d", strings.TrimPrefix(k, "session.segue."), v))
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		out = append(out, "(none)")
	}
	return out
}
