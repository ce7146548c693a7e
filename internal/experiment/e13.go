package experiment

import (
	"fmt"
	"math"
	"time"

	"adaptive"
	"adaptive/internal/impair"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/workload"
)

// E13 — shared-bottleneck bandwidth arbitration (the per-host congestion
// manager, ROADMAP item 3).
//
// N sessions of mixed Table-1 classes from one host share a single
// constrained link: two voice flows (interactive isochronous), an adaptive
// video source with a DASH-style bitrate ladder (interactive isochronous),
// an OLTP request/response client (real-time), and a bulk transfer
// (non-real-time). The experiment runs the same mix twice — once with each
// session fending for itself (the isolated arm) and once under
// adaptive.WithArbiter — and gates the arbiter's value:
//
//   - fairness: Jain's index over per-flow demand satisfaction >= 0.9 in
//     the arbitrated arm;
//   - isolation: the isochronous flows' p99 delivery latency improves over
//     the isolated arm (the bulk flood no longer queues ahead of voice);
//   - efficiency: aggregate goodput stays within a small factor of the
//     isolated arm (the arbiter trades raw link fill for bounded latency);
//   - adaptation: the video source's ladder engages (>= 1 downshift) and
//     releases its unused share back to the pool via SetBandwidthDemand;
//   - determinism: two same-seed arbitrated runs produce identical
//     fingerprints (TestE13SimDeterministic).

// E13Scenario parameterizes one shared-bottleneck run.
type E13Scenario struct {
	Name string
	Seed int64
}

// The shared bottleneck every E13 run uses.
const (
	e13LinkBps   = 8e6              // bottleneck bandwidth
	e13Window    = 10 * time.Second // traffic window in virtual time
	e13BulkBytes = 8 << 20          // background transfer size
)

// E13Flow is one session's outcome.
type E13Flow struct {
	Label        string
	Class        string
	DemandBps    float64 // declared appetite (final value after adaptation)
	GoodputBps   float64 // receiver-side delivered rate over the window
	P99          time.Duration
	Satisfaction float64 // min(1, goodput/demand); -1 = excluded from Jain
}

// E13Run is the outcome of one arm.
type E13Run struct {
	Arbitrated   bool
	Flows        []E13Flow
	AggregateBps float64
	VoiceP99     time.Duration // worst isochronous voice p99
	OltpP99      time.Duration // request/response p99 round trip
	Jain         float64
	Downshifts   uint64 // video ladder steps away from top quality
	Grants       uint64
	Decreases    uint64
	CapacityBps  float64
	// Fingerprint digests every counter and metric the run produced; two
	// same-seed runs must match exactly.
	Fingerprint string
}

// jain computes Jain's fairness index over the satisfactions.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RunSim executes one arm on the deterministic simulator.
func (sc *E13Scenario) RunSim(arbitrated bool) (*E13Run, error) {
	link := netsim.LinkConfig{
		Bandwidth: e13LinkBps,
		PropDelay: 2 * time.Millisecond,
		MTU:       1500,
		QueueLen:  64 * 1500, // bytes: ~96 ms of buffer at 8 Mbps
	}
	var extra []adaptive.Option
	if arbitrated {
		extra = append(extra, adaptive.WithArbiter())
	}
	w := newWorld(2, link, sc.Seed, nil, extra...)
	w.SeedPaths()
	k := w.K

	// Port 80 sinks the metered flows; accepts arrive in dial order because
	// each dial below is pumped to establishment before the next.
	meters := make([]*workload.Meter, 4) // voice-a, voice-b, video, bulk
	for i := range meters {
		meters[i] = workload.NewMeter(k)
	}
	var accepts int
	if err := w.Listen(w.Nodes[1], 80, func(c *adaptive.Conn) {
		if accepts < len(meters) {
			m := meters[accepts]
			c.OnDelivery(m.OnDeliver)
		}
		accepts++
	}); err != nil {
		return nil, err
	}
	// Port 81 echoes OLTP requests.
	if err := w.Listen(w.Nodes[1], 81, func(c *adaptive.Conn) {
		c.OnReceive(func(data []byte, eom bool) {
			reply := make([]byte, len(data))
			copy(reply, data)
			c.Send(reply)
		})
	}); err != nil {
		return nil, err
	}

	dial := func(acd *adaptive.ACD, what string) (*adaptive.Conn, error) {
		conn, err := w.Dial(w.Nodes[0], acd, nil, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", sc.Name, what, err)
		}
		return conn, nil
	}

	voiceACD := func() *adaptive.ACD {
		return &adaptive.ACD{
			Participants: []adaptive.Addr{w.Nodes[1].Addr()},
			RemotePort:   80,
			Quant: adaptive.QuantQoS{
				AvgThroughputBps: 320e3, PeakThroughputBps: 320e3,
				MaxLatency: 100 * time.Millisecond, MaxJitter: 10 * time.Millisecond,
				LossTolerance: 0.02,
			},
		}
	}
	cVoiceA, err := dial(voiceACD(), "voice-a")
	if err != nil {
		return nil, err
	}
	cVoiceB, err := dial(voiceACD(), "voice-b")
	if err != nil {
		return nil, err
	}
	const videoTopBps = 6e6
	cVideo, err := dial(&adaptive.ACD{
		Participants: []adaptive.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps: videoTopBps, PeakThroughputBps: videoTopBps,
			MaxLatency: 150 * time.Millisecond, MaxJitter: 30 * time.Millisecond,
			LossTolerance: 0.05,
		},
	}, "video")
	if err != nil {
		return nil, err
	}
	const bulkDemandBps = 3e6
	cBulk, err := dial(&adaptive.ACD{
		Participants: []adaptive.Addr{w.Nodes[1].Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: bulkDemandBps},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, "bulk")
	if err != nil {
		return nil, err
	}
	cOltp, err := dial(&adaptive.ACD{
		Participants: []adaptive.Addr{w.Nodes[1].Addr()},
		RemotePort:   81,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps: 400e3,
			MaxLatency:       100 * time.Millisecond,
			LossTolerance:    0.005,
		},
		Qual: adaptive.QualQoS{Ordered: true},
	}, "oltp")
	if err != nil {
		return nil, err
	}

	timers := w.Nodes[0].Stack().Timers()
	voiceA := &workload.CBR{Timers: timers, Out: cVoiceA, MsgSize: 200, Interval: 5 * time.Millisecond}
	voiceB := &workload.CBR{Timers: timers, Out: cVoiceB, MsgSize: 200, Interval: 5 * time.Millisecond}
	// 30 fps ladder: 6 / 4 / 2 Mbps mean frame sizes.
	video := &workload.VBR{
		Timers: timers, Out: cVideo, FrameRate: 30,
		MeanSize: 25000, Burst: 2, GroupLen: 12,
		Tiers: []int{25000, 16666, 8333},
	}
	bulk := &workload.Bulk{Out: cBulk, TotalSize: e13BulkBytes, ChunkSize: 32 << 10}
	rr := &workload.ReqResp{Timers: timers, Out: cOltp, ReqSize: 256, Think: 10 * time.Millisecond}
	cOltp.OnDelivery(rr.OnResponse)

	// Content adaptation: each grant steps the ladder, and the codec
	// re-declares its appetite as the rung ABOVE its current tier (DASH
	// players do the same: request the next quality up so the network can
	// prove it affordable). Declaring only the current tier would ratchet —
	// once squeezed, the grant could never exceed the lowered demand, so no
	// upshift would ever fire; declaring one rung up both releases the
	// unused share above it to the pool and keeps recovery reachable.
	videoDemand := videoTopBps
	if err := cVideo.OnBudgetChange(func(bps float64) {
		video.OnBudget(bps)
		ask := video.Tier - 1
		if ask < 0 {
			ask = 0
		}
		// The 1.1 margin must clear OnBudget's own 1/0.95 hysteresis, or a
		// fully met ask still could not fund the upshift.
		want := float64(video.Tiers[ask]) * 8 * video.FrameRate * 1.1
		if want != videoDemand {
			videoDemand = want
			cVideo.SetBandwidthDemand(want)
		}
	}); err != nil {
		return nil, err
	}

	t0 := k.Now()
	voiceA.Start(0)
	voiceB.Start(0)
	video.Start(0)
	rr.Start(1 << 20) // think-time limited; the window ends it
	// The background flood arrives after the media flows settle.
	k.Schedule(time.Second, func() { bulk.Start(k) })

	k.RunUntil(t0 + e13Window)
	voiceA.Stop()
	voiceB.Stop()
	video.Stop()
	k.RunUntil(t0 + e13Window + time.Second) // drain

	windowSec := e13Window.Seconds()
	goodput := func(m *workload.Meter) float64 { return float64(m.Bytes) * 8 / windowSec }
	p99 := func(m *workload.Meter) time.Duration {
		return time.Duration(m.Latency.Quantile(0.99) * float64(time.Second))
	}
	sat := func(good, demand float64) float64 { return math.Min(1, good/demand) }

	run := &E13Run{Arbitrated: arbitrated, Downshifts: video.Downshifts}
	// Video is judged against the rate its codec actually offered (the final
	// tier), not the one-rung-up ask it keeps declared with the arbiter.
	videoOffered := float64(video.Tiers[video.Tier]) * 8 * video.FrameRate
	demands := []float64{320e3, 320e3, videoOffered, bulkDemandBps}
	labels := []string{"voice-a", "voice-b", "video", "bulk"}
	conns := []*adaptive.Conn{cVoiceA, cVoiceB, cVideo, cBulk}
	var xs []float64
	for i, m := range meters {
		g := goodput(m)
		cls, _ := conns[i].TSC()
		f := E13Flow{
			Label: labels[i], Class: cls.String(),
			DemandBps: demands[i], GoodputBps: g, P99: p99(m),
			Satisfaction: sat(g, demands[i]),
		}
		run.Flows = append(run.Flows, f)
		run.AggregateBps += g
		xs = append(xs, f.Satisfaction)
	}
	oltpGood := float64(rr.Completed) * 256 * 8 / windowSec
	run.OltpP99 = time.Duration(rr.RespTimes.Quantile(0.99) * float64(time.Second))
	oltpCls, _ := cOltp.TSC()
	run.Flows = append(run.Flows, E13Flow{
		Label: "oltp", Class: oltpCls.String(),
		DemandBps: 400e3, GoodputBps: oltpGood, P99: run.OltpP99,
		Satisfaction: -1, // think-time limited, not bandwidth limited
	})
	run.AggregateBps += oltpGood
	run.Jain = jain(xs)
	run.VoiceP99 = run.Flows[0].P99
	if run.Flows[1].P99 > run.VoiceP99 {
		run.VoiceP99 = run.Flows[1].P99
	}
	st := w.Nodes[0].ArbiterStatus()
	run.Grants, run.Decreases, run.CapacityBps = st.Grants, st.Decreases, st.CapacityBps

	fp := fmt.Sprintf("arm=%v", arbitrated)
	for i, m := range meters {
		fp += fmt.Sprintf("|%s:%d:%d:%d:%d", labels[i], m.Bytes, m.Messages, m.Incomplete,
			int64(m.Latency.Quantile(0.99)*1e9))
	}
	fp += fmt.Sprintf("|oltp:%d:%d:%d", rr.Issued, rr.Completed, int64(run.OltpP99))
	fp += fmt.Sprintf("|arb:%d:%d:%d:%d:%d",
		st.Grants, st.Decreases, st.Hints, uint64(st.CapacityBps), video.Downshifts)
	run.Fingerprint = fp
	return run, nil
}

// Check gates the arbitrated arm against the isolated arm.
func (sc *E13Scenario) Check(iso, arb *E13Run) error {
	if arb.Grants == 0 {
		return fmt.Errorf("%s: arbiter issued no grants", sc.Name)
	}
	if arb.Jain < 0.9 {
		return fmt.Errorf("%s: Jain fairness %.3f < 0.9 in the arbitrated arm", sc.Name, arb.Jain)
	}
	if arb.VoiceP99 >= iso.VoiceP99 {
		return fmt.Errorf("%s: isochronous p99 not improved: %v arbitrated vs %v isolated",
			sc.Name, arb.VoiceP99, iso.VoiceP99)
	}
	if arb.AggregateBps < 0.8*iso.AggregateBps {
		return fmt.Errorf("%s: aggregate goodput collapsed: %s arbitrated vs %s isolated",
			sc.Name, fmtBps(arb.AggregateBps), fmtBps(iso.AggregateBps))
	}
	if arb.Downshifts == 0 {
		return fmt.Errorf("%s: video bitrate ladder never engaged", sc.Name)
	}
	return nil
}

// E13LiveRun is the live leg's outcome: the same arbiter over real UDP
// sockets with the impair shim supplying ECN-like congestion hints.
type E13LiveRun struct {
	VoiceBytes, BulkBytes uint64
	BulkBudget            float64
	Grants, Decreases     uint64
	Hints                 uint64
	CapacityBps           float64
}

// RunLive drives a reduced mix (voice + bulk) over UDP loopback through the
// impairment shim: the shim's drop counter feeds the node's hint poller, so
// the arbiter must register environment congestion (Hints > 0) and back off
// its capacity estimate below the seeded path bandwidth.
func (sc *E13Scenario) RunLive() (*E13LiveRun, error) {
	e := rig.NewLive(2, 0)
	defer e.Close()
	e.Impair(impair.Config{Seed: sc.Seed, Loss: 0.05})

	const seedBps = 50e6
	na, err := scriptNode(e, 0, sc.Seed, adaptive.WithArbiter())
	if err != nil {
		return nil, err
	}
	nb, err := scriptNode(e, 1, sc.Seed+1)
	if err != nil {
		return nil, err
	}
	na.SeedPath(nb.Addr().Host, adaptive.StaticPathInfo{
		Bandwidth: seedBps, RTT: time.Millisecond, MTU: 1400,
	})

	run := &E13LiveRun{}
	var accepts int
	if err := e.Listen(nb, 80, func(c *adaptive.Conn) {
		sink := &run.VoiceBytes // accepts arrive in dial order: voice, then bulk
		if accepts > 0 {
			sink = &run.BulkBytes
		}
		accepts++
		c.OnReceive(func(data []byte, eom bool) { *sink += uint64(len(data)) })
	}); err != nil {
		return nil, err
	}

	dial := func(acd *adaptive.ACD, what string) (*adaptive.Conn, error) {
		conn, err := e.Dial(na, acd, nil, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("%s/live/%s: %w", sc.Name, what, err)
		}
		return conn, nil
	}
	voice, err := dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant: adaptive.QuantQoS{
			AvgThroughputBps: 1e6, PeakThroughputBps: 1e6,
			MaxLatency: 100 * time.Millisecond, MaxJitter: 20 * time.Millisecond,
			LossTolerance: 0.1,
		},
	}, "voice")
	if err != nil {
		return nil, err
	}
	bulkConn, err := dial(&adaptive.ACD{
		Participants: []adaptive.Addr{nb.Addr()},
		RemotePort:   80,
		Quant:        adaptive.QuantQoS{AvgThroughputBps: 40e6},
		Qual:         adaptive.QualQoS{Ordered: true},
	}, "bulk")
	if err != nil {
		return nil, err
	}

	e.Do(func() {
		if err = bulkConn.OnBudgetChange(func(bps float64) { run.BulkBudget = bps }); err != nil {
			return
		}
		timers := na.Stack().Timers()
		cbr := &workload.CBR{Timers: timers, Out: voice, MsgSize: 500, Interval: 5 * time.Millisecond}
		cbr.Start(0)
		b := &workload.Bulk{Out: bulkConn, TotalSize: 4 << 20, ChunkSize: 32 << 10}
		b.Start(e.Prov.Clock())
	})
	if err != nil {
		return nil, err
	}

	// Wait for exactly what CheckLive gates. A hint backs the estimate off at
	// once but only marks the arbiter dirty: the smaller bulk grant arrives
	// with the next sampler tick's Reallocate, so hints, decreases and a first
	// (unsqueezed) grant can all be in before the budget has moved.
	e.Until(20*time.Millisecond, 8*time.Second, func() bool {
		st := na.ArbiterStatus()
		run.Grants, run.Decreases, run.Hints, run.CapacityBps = st.Grants, st.Decreases, st.Hints, st.CapacityBps
		return sc.CheckLive(run) == nil
	})
	return run, nil
}

// CheckLive gates the live leg.
func (sc *E13Scenario) CheckLive(run *E13LiveRun) error {
	if run.VoiceBytes == 0 || run.BulkBytes == 0 {
		return fmt.Errorf("%s/live: flows stalled (voice %d B, bulk %d B)",
			sc.Name, run.VoiceBytes, run.BulkBytes)
	}
	if run.Grants == 0 {
		return fmt.Errorf("%s/live: arbiter issued no grants", sc.Name)
	}
	if run.Hints == 0 {
		return fmt.Errorf("%s/live: impair drop counter produced no congestion hints", sc.Name)
	}
	if run.Decreases == 0 {
		return fmt.Errorf("%s/live: estimate never backed off despite impairment", sc.Name)
	}
	if run.BulkBudget <= 0 || run.BulkBudget >= 40e6 {
		return fmt.Errorf("%s/live: bulk budget %s not squeezed below its 40 Mbps demand",
			sc.Name, fmtBps(run.BulkBudget))
	}
	return nil
}

// RunE13 regenerates the E13 artifact: isolated vs arbitrated arms.
func RunE13() []Table {
	sc := &E13Scenario{Name: "e13", Seed: 13}
	flows := &Table{
		ID:      "E13a",
		Title:   "Shared bottleneck, per-flow outcome (isolated vs arbitrated)",
		Headers: []string{"arm", "flow", "class", "demand", "goodput", "p99 latency", "satisfied"},
	}
	summary := &Table{
		ID:      "E13b",
		Title:   "Shared bottleneck, host bandwidth arbiter summary",
		Headers: []string{"arm", "aggregate", "voice p99", "oltp p99", "jain", "downshifts", "grants", "decreases", "capacity"},
	}
	armName := func(arbitrated bool) string {
		if arbitrated {
			return "arbitrated"
		}
		return "isolated"
	}
	addRun := func(run *E13Run) {
		arm := armName(run.Arbitrated)
		for _, f := range run.Flows {
			satCell := "-"
			if f.Satisfaction >= 0 {
				satCell = fmtPct(f.Satisfaction)
			}
			flows.Rows = append(flows.Rows, []string{
				arm, f.Label, f.Class, fmtBps(f.DemandBps), fmtBps(f.GoodputBps),
				fmtDur(f.P99), satCell,
			})
		}
		caps := "-"
		if run.Arbitrated {
			caps = fmtBps(run.CapacityBps)
		}
		summary.Rows = append(summary.Rows, []string{
			arm, fmtBps(run.AggregateBps), fmtDur(run.VoiceP99), fmtDur(run.OltpP99),
			fmt.Sprintf("%.3f", run.Jain), fmt.Sprintf("%d", run.Downshifts),
			fmt.Sprintf("%d", run.Grants), fmt.Sprintf("%d", run.Decreases), caps,
		})
	}

	iso, err := sc.RunSim(false)
	if err != nil {
		summary.Notes = append(summary.Notes, "isolated arm failed: "+err.Error())
		return []Table{*flows, *summary}
	}
	arb, err := sc.RunSim(true)
	if err != nil {
		summary.Notes = append(summary.Notes, "arbitrated arm failed: "+err.Error())
		return []Table{*flows, *summary}
	}
	addRun(iso)
	addRun(arb)
	status := "ok"
	if err := sc.Check(iso, arb); err != nil {
		status = err.Error()
	}
	summary.Notes = append(summary.Notes, "gates (arbitrated arm): "+status)
	return []Table{*flows, *summary}
}
