package experiment

import (
	"fmt"
	"runtime"
	"time"

	"adaptive"
	"adaptive/internal/mechanism"
	"adaptive/internal/netsim"
	"adaptive/internal/rig"
	"adaptive/internal/sim"
	"adaptive/internal/trace"
	"adaptive/internal/unites"
	"adaptive/internal/workload"
)

// E10 — the many-session scale soak.
//
// The paper positions ADAPTIVE for "high-performance transport systems"
// whose per-packet overhead must stay flat as rates climb (§2.2A). E10
// turns that requirement on the simulator itself: N concurrent sessions,
// mixed over the Table 1 service classes, run on a sharded set of kernels
// with batched link delivery, and the scale metric is kernel events per
// delivered packet — the per-PDU bookkeeping cost of the whole stack. The
// amortization has to come from real mechanisms: coalesced link drains,
// inline zero-cost CPU completions, multi-PDU application frames, and
// burst-coalesced delayed acks.
//
// Everything in the table is virtual-time arithmetic, so two runs render
// byte-identical output; wall-clock rates live in BenchmarkE10_Scale.

// E10Sessions are the soak sizes the table and the benchmark sweep.
var E10Sessions = []int{100, 1000, 5000}

const (
	e10Shards = 8 // fixed: part of the experiment definition (seed derivation)
	e10Seed   = 10_000
	e10Warmup = 250 * time.Millisecond // connection setup + generator spin-up
	e10End    = 1 * time.Second
)

// E10Result aggregates one soak run (post-warmup deltas across all shards).
type E10Result struct {
	Sessions  int
	Delivered uint64 // packets (data + control) handed to receivers
	Events    uint64 // kernel events executed
	Shards    int
	Latency   *unites.Distribution // stamped-message latency, merged across shards
	Jitter    *unites.Distribution
}

// EventsPerPacket is the scale metric: kernel events per delivered packet.
func (r E10Result) EventsPerPacket() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.Events) / float64(r.Delivered)
}

// VirtualPktRate is the delivered-packet rate in virtual time (packets per
// simulated second) — deterministic, unlike wall-clock rates.
func (r E10Result) VirtualPktRate() float64 {
	return float64(r.Delivered) / (e10End - e10Warmup).Seconds()
}

type e10Shard struct {
	delivered uint64
	events    uint64
	latency   *unites.Distribution
	jitter    *unites.Distribution
}

// e10Class is one Table-1-derived traffic class in the soak mix.
type e10Class struct {
	name   string
	weight int // sessions per 10 in the mix
	spec   func() adaptive.Spec
	// start wires the workload for one session and returns nothing; it is
	// handed the shard's world (host 0 the client, host 1 the server), the
	// client conn and a deterministic stagger offset inside the class period.
	start func(sh *rig.World, conn *adaptive.Conn, stagger time.Duration)
}

// e10Mix is the soak's service-class mix (per 10 sessions: 2 voice CBR,
// 4 compressed-video VBR, 2 bulk file transfer, 2 OLTP request-response).
// The weights lean on multi-PDU-per-event classes — that is where scale
// traffic actually comes from (video frames, bulk windows), and it is what
// an events-per-packet budget rewards.
func e10Mix() []e10Class {
	return []e10Class{
		{
			name:   "voice-cbr",
			weight: 2,
			spec: func() adaptive.Spec {
				s := mechanism.DefaultSpec()
				s.ConnMgmt = adaptive.ConnImplicit
				s.Recovery = adaptive.RecoveryNone
				s.Order = mechanism.OrderNone
				s.LossTolerant = true
				return s
			},
			start: func(sh *rig.World, conn *adaptive.Conn, stagger time.Duration) {
				g := &workload.CBR{Timers: sh.Nodes[0].Stack().Timers(), Out: conn,
					MsgSize: 160, Interval: 20 * time.Millisecond}
				sh.K.Schedule(stagger, func() { g.Start(0) })
			},
		},
		{
			name:   "video-vbr",
			weight: 4,
			spec: func() adaptive.Spec {
				s := mechanism.DefaultSpec()
				s.ConnMgmt = adaptive.ConnImplicit
				s.Recovery = adaptive.RecoveryFEC
				s.FECGroup = 8
				s.Order = mechanism.OrderNone
				s.LossTolerant = true
				return s
			},
			start: func(sh *rig.World, conn *adaptive.Conn, stagger time.Duration) {
				g := &workload.VBR{Timers: sh.Nodes[0].Stack().Timers(), Out: conn,
					FrameRate: 30, MeanSize: 4000, Burst: 2, GroupLen: 30}
				sh.K.Schedule(stagger, func() { g.Start(0) })
			},
		},
		{
			name:   "bulk-ftp",
			weight: 2,
			spec: func() adaptive.Spec {
				s := mechanism.DefaultSpec()
				s.WindowSize = 64
				s.RcvBufPDUs = 256
				s.AckDelay = 2 * time.Millisecond
				return s
			},
			start: func(sh *rig.World, conn *adaptive.Conn, stagger time.Duration) {
				g := &workload.Bulk{Out: conn, TotalSize: 128 << 10, ChunkSize: 16 << 10}
				sh.K.Schedule(stagger, func() { g.Start(sh.K) })
			},
		},
		{
			name:   "oltp-reqresp",
			weight: 2,
			spec: func() adaptive.Spec {
				s := mechanism.DefaultSpec()
				s.WindowSize = 8
				return s
			},
			start: func(sh *rig.World, conn *adaptive.Conn, stagger time.Duration) {
				rr := &workload.ReqResp{Timers: sh.Nodes[0].Stack().Timers(), Out: conn,
					ReqSize: 256, Think: 5 * time.Millisecond}
				conn.OnDelivery(rr.OnResponse)
				sh.K.Schedule(stagger, func() { rr.Start(1 << 30) })
			},
		},
	}
}

// e10ClassFor maps a session index to its class, cycling the weighted mix.
func e10ClassFor(mix []e10Class, i int) *e10Class {
	slot := i % 10
	for c := range mix {
		if slot < mix[c].weight {
			return &mix[c]
		}
		slot -= mix[c].weight
	}
	return &mix[0]
}

// runE10Shard builds one shard on the given kernel, drives its share of the
// sessions, and returns post-warmup deltas.
func runE10Shard(shard int, k *sim.Kernel, sessions int, repo *unites.Repository, tracer *trace.Recorder) e10Shard {
	sh, meter := buildE10Shard(shard, k, sessions, repo, tracer)
	k.RunUntil(e10Warmup)
	ev0, rx0 := k.Executed(), sh.Net.TotalReceived()
	k.RunUntil(e10End)
	return e10Shard{delivered: sh.Net.TotalReceived() - rx0, events: k.Executed() - ev0,
		latency: meter.Latency, jitter: meter.Jitter}
}

// buildE10Shard builds one shard's private 2-host internetwork on the given
// kernel and dials its sessions, each with its generator scheduled; nothing
// has run yet. A nil repo gives the shard a private repository (the default);
// passing a shared one exercises concurrent cross-shard recording. A non-nil
// tracer is installed on the kernel and every node, so the shard's flight
// record covers timers, links, and sessions.
func buildE10Shard(shard int, k *sim.Kernel, sessions int, repo *unites.Repository, tracer *trace.Recorder) (*rig.World, *workload.Meter) {
	sh := rig.OnKernel(k, 2)
	if tracer != nil {
		tracer.SetShard(shard)
		sh.Trace(tracer)
	}
	if repo != nil {
		sh.Repo = repo
	}
	link := netsim.LinkConfig{
		Bandwidth: 1e9,
		PropDelay: 500 * time.Microsecond,
		MTU:       1500,
		QueueLen:  1 << 22,
		// NIC-style interrupt coalescing: arrivals inside a 200µs window
		// share one drain. This is the batched-delivery amortization knob.
		Coalesce: 200 * time.Microsecond,
	}
	sh.Mesh(link)
	seed := sim.DeriveSeed(e10Seed, shard)
	client := must(sh.Node(0, seed+1, fmt.Sprintf("e10s%d-c", shard)))
	server := must(sh.Node(1, seed+2, fmt.Sprintf("e10s%d-s", shard)))
	// One meter per shard measures stamped-message latency/jitter at the
	// receivers (blackbox QoS); sessions of a shard share it, shards merge.
	meter := workload.NewMeter(k)

	mix := e10Mix()
	for i := 0; i < sessions; i++ {
		cls := e10ClassFor(mix, i)
		port := uint16(2000 + i)
		if cls.name == "oltp-reqresp" {
			check(sh.Echo(server, port))
		} else {
			check(server.Listen(port, nil, func(c *adaptive.Conn) {
				c.OnDelivery(meter.OnDeliver)
			}))
		}
		conn, err := client.DialSpec(cls.spec(), server.Addr(), uint16(30000+i), port)
		if err != nil {
			panic(err)
		}
		// Deterministic stagger spreads session start instants across the
		// first 20ms so the soak measures steady state, not one synchronized
		// burst; sessions of one class still share tick instants pairwise,
		// which is exactly the burst structure batching amortizes.
		stagger := 10*time.Millisecond + time.Duration(i%20)*time.Millisecond/2
		cls.start(sh, conn, stagger)
	}
	return sh, meter
}

// RunE10Scale runs one soak of n total sessions across the fixed shard set
// and aggregates the post-warmup counters. Worker parallelism follows
// GOMAXPROCS but never changes the result (see sim.RunSharded).
func RunE10Scale(n int) E10Result {
	return runE10ScaleOpt(n, nil, nil)
}

// runE10ScaleOpt is RunE10Scale with optional observation hooks: a shared
// repository (nil = per-shard private repos) and per-shard trace recorders
// (nil = tracing disabled; otherwise must hold e10Shards entries).
func runE10ScaleOpt(n int, repo *unites.Repository, tracers []*trace.Recorder) E10Result {
	per := n / e10Shards
	rem := n % e10Shards
	g := sim.ShardGroup{Seed: e10Seed, Shards: e10Shards, Workers: runtime.GOMAXPROCS(0)}
	shards := sim.RunSharded(g, func(shard int, k *sim.Kernel) e10Shard {
		s := per
		if shard < rem {
			s++
		}
		var tr *trace.Recorder
		if tracers != nil {
			tr = tracers[shard]
		}
		return runE10Shard(shard, k, s, repo, tr)
	})
	r := E10Result{Sessions: n, Shards: e10Shards,
		Latency: unites.NewDistribution(), Jitter: unites.NewDistribution()}
	for _, s := range shards {
		r.Delivered += s.delivered
		r.Events += s.events
		// Shard order is fixed, so the merged histograms are deterministic.
		r.Latency.Merge(s.latency)
		r.Jitter.Merge(s.jitter)
	}
	return r
}

// RunE10 renders the scale-soak table.
func RunE10() []Table {
	t := Table{
		ID:      "E10",
		Title:   "Scale soak: mixed-class sessions, sharded kernels, batched delivery",
		Headers: []string{"sessions", "shards", "delivered pkts", "kernel events", "events/pkt", "virtual pkt rate", "lat p50", "lat p99", "lat p999"},
	}
	for _, n := range E10Sessions {
		r := RunE10Scale(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Sessions),
			fmt.Sprintf("%d", r.Shards),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.3f", r.EventsPerPacket()),
			fmt.Sprintf("%.0f pkt/s", r.VirtualPktRate()),
			fmtQuantile(r.Latency, 0.5),
			fmtQuantile(r.Latency, 0.99),
			fmtQuantile(r.Latency, 0.999),
		})
	}
	t.Notes = append(t.Notes,
		"mix per 10 sessions: 2 voice CBR / 4 video VBR (FEC) / 2 bulk (delayed-ack) / 2 OLTP req-resp",
		"per shard: 2 hosts, 1 Gbps duplex, 500us propagation, 200us delivery coalesce window",
		fmt.Sprintf("counters are post-warmup deltas (%v..%v of virtual time); all values virtual-time-deterministic", e10Warmup, e10End),
		"scale target: events/pkt < 1.0 — per-packet kernel bookkeeping amortized away (§2.2A)",
		"latency quantiles: stamped-message delivery latency, log-bucketed histogram merged across shards")
	return []Table{t}
}
