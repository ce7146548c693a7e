package experiment

import (
	"fmt"
	"strings"
	"time"

	"adaptive"
	"adaptive/internal/mantts"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/workload"
)

// RunT1 regenerates Table 1 as executable policy (the TSC table itself) and
// then validates every row end-to-end: each application profile is run over
// a suitable network with the configuration MANTTS derives for it, and the
// delivered QoS is checked against the row's sensitivities.
func RunT1() []Table {
	policy := Table{
		ID:      "T1a",
		Title:   "Table 1 — Application Transport Service Classes (policy table)",
		Headers: []string{"class", "application", "thruput", "burst", "delay", "jitter", "order", "loss", "prio", "mcast"},
	}
	for _, r := range mantts.Table1 {
		policy.Rows = append(policy.Rows, []string{
			r.Class.String(), r.Application, r.AvgThruput.String(), r.BurstFactor.String(),
			r.DelaySens.String(), r.JitterSens.String(), r.OrderSens.String(), r.LossTol.String(),
			yesNo(r.Priority), yesNo(r.Multicast),
		})
	}

	validate := Table{
		ID:    "T1b",
		Title: "Table 1 rows driven end-to-end (MANTTS-configured session per row)",
		Headers: []string{"application", "tsc", "recovery", "conn", "goodput", "p99 latency",
			"mean jitter", "loss", "qos met"},
	}
	for i := range mantts.Table1 {
		row := runProfileRow(&mantts.Table1[i], int64(100+i))
		validate.Rows = append(validate.Rows, row)
	}
	validate.Notes = append(validate.Notes,
		"network: 100 Mbps / 2 ms one-way / MTU 1500 / BER 1e-9, with 0.5% random loss for media rows",
		"'qos met' checks the row's delay/jitter/loss sensitivities against delivered QoS")
	return []Table{policy, validate}
}

// runProfileRow runs one Table 1 application over the network and reports
// delivered QoS.
func runProfileRow(p *mantts.AppProfile, seed int64) []string {
	link := netsim.LinkConfig{Bandwidth: 100e6, PropDelay: 2 * time.Millisecond, MTU: 1500, BER: 1e-9, QueueLen: 1 << 20}
	// Loss-tolerant rows see congestion-grade loss; rows with only slight
	// tolerance see the residual loss a provisioned network leaves.
	switch p.LossTol {
	case mantts.High, mantts.Moderate:
		link.DropRate = 0.005
	case mantts.Low:
		link.DropRate = 0.002
	}
	// Remote File Service is marked multicast in Table 1 (one server,
	// many clients) but its traffic is request-response; drive it as the
	// unicast transaction flow it is.
	mcast := p.Multicast && !strings.Contains(p.Application, "Remote File")
	nHosts := 2
	if mcast {
		nHosts = 3
	}
	w := newWorld(nHosts, link, seed, nil)
	w.SeedPaths()

	acd := mantts.ACDForProfile(p)
	meters := make([]*workload.Meter, 0, nHosts-1)

	var group netapi.HostID
	if mcast {
		group = w.Net.NewGroup()
		for i := 1; i < nHosts; i++ {
			w.Net.Join(group, w.Hosts[i])
			m := workload.NewMeter(w.K)
			meters = append(meters, m)
			node := w.Nodes[i]
			meter := m
			node.OnMulticastJoin(func(c *adaptive.Conn, _ netapi.HostID) {
				c.OnDelivery(meter.OnDeliver)
			})
		}
		acd.Participants = []netapi.Addr{{Host: group, Port: w.Nodes[0].Addr().Port}}
		for i := 1; i < nHosts; i++ {
			acd.Participants = append(acd.Participants, w.Nodes[i].Addr())
		}
	} else {
		m := workload.NewMeter(w.K)
		meters = append(meters, m)
		check(w.Nodes[1].Listen(80, nil, func(c *adaptive.Conn) { c.OnDelivery(m.OnDeliver) }))
		acd.Participants = []netapi.Addr{w.Nodes[1].Addr()}
	}
	acd.RemotePort = 80

	conn, err := w.Nodes[0].Dial(acd, &adaptive.DialOptions{LocalPort: 80})
	if err != nil {
		return []string{p.Application, "error", err.Error()}
	}

	timers := w.Nodes[0].Stack().Timers()
	var generated *uint64
	var expBytes func() uint64
	runFor := 5 * time.Second
	switch {
	case strings.Contains(p.Application, "Voice"):
		g := &workload.CBR{Timers: timers, Out: conn, MsgSize: 160, Interval: 20 * time.Millisecond}
		g.Start(200)
		generated = &g.Generated
		expBytes = func() uint64 { return g.Generated * 160 }
	case strings.Contains(p.Application, "Tele-Conferencing"):
		g := &workload.CBR{Timers: timers, Out: conn, MsgSize: 480, Interval: 20 * time.Millisecond}
		w.K.Schedule(100*time.Millisecond, func() { g.Start(200) }) // let invites land
		generated = &g.Generated
		expBytes = func() uint64 { return g.Generated * 480 }
	case strings.Contains(p.Application, "(comp)"):
		g := &workload.VBR{Timers: timers, Out: conn, FrameRate: 30, MeanSize: 8000, Burst: 4, GroupLen: 12}
		w.K.Schedule(100*time.Millisecond, func() { g.Start(150) })
		generated = &g.Generated
		expBytes = func() uint64 { return g.BytesOut }
		runFor = 7 * time.Second // 5s of frames plus drain
	case strings.Contains(p.Application, "(raw)"):
		g := &workload.CBR{Timers: timers, Out: conn, MsgSize: 60000, Interval: 33 * time.Millisecond}
		w.K.Schedule(100*time.Millisecond, func() { g.Start(150) })
		generated = &g.Generated
		expBytes = func() uint64 { return g.Generated * 60000 }
		runFor = 8 * time.Second
	case strings.Contains(p.Application, "Manufacturing"):
		// The 0.1% loss budget needs a long run to judge fairly.
		g := &workload.CBR{Timers: timers, Out: conn, MsgSize: 128, Interval: 10 * time.Millisecond}
		w.K.Schedule(100*time.Millisecond, func() { g.Start(3000) })
		generated = &g.Generated
		expBytes = func() uint64 { return g.Generated * 128 }
		runFor = 32 * time.Second
	case strings.Contains(p.Application, "File Transfer"):
		g := &workload.Bulk{Out: conn, TotalSize: 2 << 20, ChunkSize: 32 << 10}
		g.Start(w.K)
		generated = &g.Generated
		runFor = 10 * time.Second
	case strings.Contains(p.Application, "TELNET"):
		g := &workload.Keystroke{Timers: timers, Out: conn, MeanGap: 50 * time.Millisecond, Seed: 42}
		g.Start(150)
		generated = &g.Generated
		runFor = 15 * time.Second
	default: // OLTP, Remote File Service: request-response
		rr := &workload.ReqResp{Timers: timers, Out: conn, ReqSize: 256, Think: 5 * time.Millisecond}
		w.Nodes[1].Unlisten(80)
		check(w.Echo(w.Nodes[1], 80))
		conn.OnDelivery(func(d adaptive.Delivery) {
			meters[0].Observe(d)
			rr.OnResponse(d)
		})
		rr.Start(200)
		generated = &rr.Issued
		runFor = 15 * time.Second
	}

	w.K.RunUntil(runFor)
	// Aggregate across receivers (multicast) or take the single meter.
	m := meters[0]
	var gen uint64
	if generated != nil {
		gen = *generated
	}
	tscv, _ := conn.TSC()
	spec := conn.Spec()
	loss := m.LossRate(gen)
	if acd.Quant.LossTolerance > 0 && expBytes != nil {
		// Loss-tolerant media rows are judged on byte-level loss: a frame
		// missing one segment is degraded, not gone (hierarchically-coded
		// video per the paper's §2.1B).
		if exp := expBytes(); exp > 0 {
			loss = 1 - float64(m.Bytes)/float64(exp)
			if loss < 0 {
				loss = 0
			}
		}
	}
	row := []string{
		p.Application,
		tscv.String(),
		spec.Recovery.String(),
		spec.ConnMgmt.String(),
		fmtBps(m.ThroughputBps()),
		fmtDur(time.Duration(m.Latency.Quantile(0.99) * float64(time.Second))),
		fmtDur(time.Duration(m.Jitter.Mean() * float64(time.Second))),
		fmtPct(loss),
		yesNo(qosMet(p, acd, m, gen, loss)),
	}
	return row
}

func yesNo(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// qosMet checks delivered QoS against the profile's sensitivities.
func qosMet(p *mantts.AppProfile, acd *mantts.ACD, m *workload.Meter, generated uint64, loss float64) bool {
	if m.Messages == 0 {
		return false
	}
	if acd.Quant.MaxLatency > 0 {
		if m.Latency.Quantile(0.99) > acd.Quant.MaxLatency.Seconds()*2 {
			return false
		}
	}
	if acd.Quant.LossTolerance > 0 {
		if loss > acd.Quant.LossTolerance {
			return false
		}
	} else if generated > 0 && m.Messages < generated {
		// Zero-tolerance rows must deliver everything submitted by the
		// end of the run.
		return false
	}
	if p.OrderSens == mantts.High && m.Misordered > 0 {
		return false
	}
	return true
}

// RunT2 exercises the ACD format (Table 2): every field encodes, travels,
// and decodes; unknown fields are skipped.
func RunT2() []Table {
	t := Table{
		ID:      "T2",
		Title:   "Table 2 — ADAPTIVE Communication Descriptor fields (codec check)",
		Headers: []string{"field group", "example", "encoded+decoded"},
	}
	cls := mantts.TSCInteractiveIsochronous
	acd := &mantts.ACD{
		Participants: []netapi.Addr{{Host: 12, Port: 80}, {Host: 13, Port: 80}},
		RemotePort:   80,
		Quant: mantts.QuantQoS{
			PeakThroughputBps: 10e6, AvgThroughputBps: 2e6,
			MaxLatency: 100 * time.Millisecond, MaxJitter: 10 * time.Millisecond,
			LossTolerance: 0.05, Duration: time.Hour,
		},
		Qual: mantts.QualQoS{Ordered: true, DupSensitive: true, ConnMgmt: mantts.ConnPreferImplicit, Unit: mantts.UnitBlock, Priority: 3},
		TSA: []mantts.Rule{{
			Cond:   mantts.Cond{Metric: mantts.MetricRTT, Op: mantts.OpGT, Threshold: 0.3},
			Action: mantts.Action{Kind: mantts.ActSetRecovery, Recovery: adaptive.RecoveryFEC},
		}},
		TMC:   mantts.TMC{Metrics: []string{"rel.retransmissions"}, SampleRate: 50 * time.Millisecond},
		Class: &cls,
	}
	enc := mantts.EncodeACD(acd)
	dec, err := mantts.DecodeACD(enc)
	ok := func(b bool) string { return yesNo(b && err == nil) }
	t.Rows = [][]string{
		{"participant addresses", fmt.Sprintf("%v", acd.Participants), ok(len(dec.Participants) == 2)},
		{"quantitative QoS", fmt.Sprintf("peak=%s lat<=%v jit<=%v loss<=%.0f%%", fmtBps(acd.Quant.PeakThroughputBps), acd.Quant.MaxLatency, acd.Quant.MaxJitter, acd.Quant.LossTolerance*100), ok(dec.Quant == acd.Quant)},
		{"qualitative QoS", fmt.Sprintf("ordered=%v dup-sensitive=%v conn=implicit unit=block", acd.Qual.Ordered, acd.Qual.DupSensitive), ok(dec.Qual == acd.Qual)},
		{"TSA <condition,action>", acd.TSA[0].String(), ok(len(dec.TSA) == 1 && dec.TSA[0].Cond == acd.TSA[0].Cond)},
		{"TMC", fmt.Sprintf("metrics=%v every %v", acd.TMC.Metrics, acd.TMC.SampleRate), ok(len(dec.TMC.Metrics) == 1 && dec.TMC.SampleRate == acd.TMC.SampleRate)},
		{"explicit TSC", cls.String(), ok(dec.Class != nil && *dec.Class == cls)},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("full descriptor encodes to %d bytes", len(enc)))
	return []Table{t}
}
