package main

import (
	"adaptive/bench/tap"
	"adaptive/internal/wire"
)

// ledgerRow is one line of the cost ledger: a rung, how often its operation
// ran in the traced window, and the CPU time that explains.
type ledgerRow struct {
	Rung  string  `json:"rung"`
	Ns    float64 `json:"ns_per_op"`
	Ops   float64 `json:"ops"`
	Share float64 `json:"share_of_cpu"`
}

// layerMetrics assembles every per-layer metric from a traced measurement
// mt, the untraced measurement mu taken beside it, and the layer rungs. What
// describes the program's own speed (the ungated wall-clock companions) comes
// from mu; the tap's spans and the counters come from mt.
func layerMetrics(w *workloadDef, mt, mu *measurement, rungs map[string]rungResult) (map[string]float64, []ledgerRow) {
	out := make(map[string]float64, len(perLayer))
	for k, v := range mt.counters {
		out[k] = v
	}
	for k, v := range mu.wallCompanions() {
		out[k] = v
	}
	for name, r := range rungs {
		out[name] = r.Ns
	}
	tw := mt.trace
	a := &tw.aggs.By
	pkts := float64(tw.pkts)
	data := float64(tw.byType[wire.TData].Count)
	perOp := func(n tap.Name) float64 { return ratio(float64(a[n].Self), float64(a[n].Count)) }

	live := w.name == "live_bulk" || w.name == "live_rr"
	if live {
		out["udpnet.send_ns_per_frame"] = perOp(tap.ProviderSend)
		t := newTiming(tw.transitsUs)
		out["udpnet.transit_p50_us"] = t.P50
		out["udpnet.transit_p99_us"] = t.at(0.99, 10)
	} else {
		out["netsim.send_ns_per_pkt"] = perOp(tap.ProviderSend)
		out["sim.kernel_self_ns_per_pkt"] = ratio(float64(a[tap.SimRun].Self), pkts)
	}
	out["stack.tx_self_ns_per_pdu"] = ratio(float64(a[tap.AppSend].Self), data)
	out["stack.rx_self_ns_per_pkt"] = ratio(float64(a[tap.StackRx].Self), float64(a[tap.StackRx].N))
	out["stack.timer_self_ns_per_pkt"] = ratio(float64(a[tap.StackTimer].Self), pkts)
	out["stack.timer_fires_per_pkt"] = ratio(float64(a[tap.StackTimer].Count), pkts)
	out["mantts.open_session_ns"] = perOp(tap.AppDial)
	out["session.segue_ns"] = perOp(tap.AppReconfigure)
	out["workload.tick_self_ns_per_msg"] = ratio(float64(a[tap.WorkloadTick].Self), float64(tw.msgs))

	out["reliable.retransmit_share"] = ratio(mt.counters["reliable.retransmissions"], data)
	out["reliable.acks_per_data_pdu"] = ratio(float64(tw.byType[wire.TAck].Count), data)

	// Everything but the kernel's own share of sim.run is time some span
	// accounts for.
	attributed := tw.aggs.SelfTotal() - a[tap.SimRun].Self
	out["ledger.attributed_share"] = ratio(float64(attributed), float64(tw.wall.Nanoseconds()))
	// The two rigs run one after the other on a host whose speed drifts, and
	// the sim rigs' tails are not the same work; the best deciles compare what
	// each does undisturbed.
	out["trace.overhead_share"] = 1 - ratio(mt.pktsPerSec(bestRate), mu.pktsPerSec(bestRate))

	out["fail_share"] = ratio(float64(mt.failed), float64(mt.attempted))
	out["driver.blocked_waits"] = float64(mt.blockedWaits)
	out["driver.top_ups"] = float64(mt.topUps)

	rows := ledger(w, mt, rungs, live)
	var explained float64
	for _, r := range rows {
		explained += r.Share
	}
	out["ledger.rung_share"] = explained

	// Exactly the declared metrics: one a workload has nothing to say about
	// reads 0, and the counters' undeclared companions stay behind.
	declared := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		declared[d.name] = out[d.name]
	}
	return declared, rows
}

// ledger multiplies each rung by the number of times its operation ran in
// the traced window and reports the share of the window's CPU time that
// explains. It is a model, not a measurement: the point is to see how much of
// cpu_ns_per_pkt the isolated layers account for, and how much they do not.
func ledger(w *workloadDef, mt *measurement, rungs map[string]rungResult, live bool) []ledgerRow {
	tw := mt.trace
	cpu := float64(tw.cpu.Nanoseconds())
	pkts := float64(tw.pkts)
	var framesOut, data float64
	for _, s := range tw.byType {
		framesOut += float64(s.Count)
	}
	data = float64(tw.byType[wire.TData].Count)
	ns := func(name string) float64 { return rungs[name].Ns }
	var rows []ledgerRow
	add := func(rung string, nsPerOp, ops float64) {
		if nsPerOp <= 0 || ops <= 0 {
			return
		}
		rows = append(rows, ledgerRow{Rung: rung, Ns: nsPerOp, Ops: ops, Share: ratio(nsPerOp*ops, cpu)})
	}
	// The session ladder's rungs each carry one data PDU through a sender
	// and a receiver session, codec and message pool included, so they
	// stand for wire, message, session, xmit, reliable and order at once.
	// The lossy and go-back-n rungs are measured unordered; the sequencer's
	// increment comes from the clean pair.
	seqInc := ns(rungSRSeq) - ns("reliable.sr_ns_per_pdu")
	if seqInc < 0 {
		seqInc = 0
	}
	for rung, n := range tw.dataByRung {
		per := ns(rung)
		if rung == rungLossy || rung == rungGBN {
			per += seqInc
		}
		add(rung, per, n)
	}
	// Control frames the ladder did not generate itself (handshakes, NAKs,
	// parity, signalling) still cross the codec.
	if extra := framesOut - data - float64(tw.byType[wire.TAck].Count); extra > 0 {
		add("wire.encode_ns_per_pdu", ns("wire.encode_ns_per_pdu")+ns("wire.decode_ns_per_pdu"), extra)
	}
	if w.name == "sim_soak" {
		add("protograph.demux_ns_per_pkt_n1000",
			ns("protograph.demux_ns_per_pkt_n1000")-ns("protograph.demux_ns_per_pkt_n1"), pkts)
	}
	// UNITES: two counters per frame sent, one per frame received, two per
	// delivery; the rung's operation is one Count plus one Sample.
	add("unites.record_ns", ns("unites.record_ns")/2, 2*framesOut+pkts+2*data)
	add("event.rearm_ns", ns("event.rearm_ns"), mt.counters["event.scheduled_per_pkt"]*pkts)
	if live {
		add("udpnet.blast_ns_per_pkt", ns("udpnet.blast_ns_per_pkt"), pkts)
	} else {
		add("sim.event_ns", ns("sim.event_ns"), mt.counters["sim.events_per_pkt"]*pkts)
		add("netsim.forward_ns_per_pkt", ns("netsim.forward_ns_per_pkt"), pkts)
	}
	dials := mt.counters["protograph.sessions_total"] / 2 // each dial makes a session at both ends
	add("mantts.transform_ns", ns("mantts.transform_ns")+ns("tko.synthesize_hit_ns"), dials)
	return rows
}
