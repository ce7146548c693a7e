package main

import (
	"hash/crc32"
	"math/rand"
	"sort"
	"time"

	"adaptive"
	"adaptive/bench/tap"
	"adaptive/internal/event"
	"adaptive/internal/mechanism"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/unites"
	"adaptive/internal/workload"
)

// simRig is the shared body of the two simulator workloads: one kernel, one
// two-host netsim network, a client and a server node, and the bench-side
// generators and sinks. Everything runs on the calling goroutine.
type simRig struct {
	name   string
	k      *sim.Kernel
	net    *netsim.Network
	links  []*netsim.Link
	rec    *tap.Recorder
	client *adaptive.Node
	server *adaptive.Node
	repo   *adaptive.MetricsRepository
	gen    *event.Manager // generator timers (workload.tick spans when traced)
	rng    *rand.Rand

	chunk time.Duration // virtual time per Kernel.RunUntil call
	span  time.Duration // virtual window the provider-clock metrics cover

	// The measurement window in virtual time, and what fell inside it.
	winStart, winEnd time.Duration
	payload          uint64
	latUs            []float64
	payloadAll       uint64
	attempted        uint64

	streams []*stream
	sinks   []*sink

	// again builds a fresh rig like this one, warmed up, from the same seed.
	again func() (*simRig, error)

	// sim_lossy only.
	slots       []*churnSlot
	dials       uint64
	dialFails   uint64
	establishUs []float64
	byConn      map[uint32]*churnSlot
}

// The session-ladder rungs a sim session's data PDUs are charged to.
const (
	rungNone  = "session.null_out_ns_per_pdu"
	rungFEC   = "reliable.fec_ns_per_pdu"
	rungSRSeq = "order.sequenced_ns_per_pdu"
	rungLossy = "reliable.sr_lossy_ns_per_pdu"
	rungGBN   = "reliable.gbn_ns_per_pdu"
)

const simSlice = 100 * time.Millisecond // wall

func newSimRig(name string, seed int64, rec *tap.Recorder, link netsim.LinkConfig) (*simRig, error) {
	r := &simRig{name: name, rec: rec, repo: unites.NewRepository(),
		rng: rand.New(rand.NewSource(seed ^ 0x73696d))}
	r.k = sim.NewKernel(seed)
	r.net = netsim.New(r.k)
	ha, hb := r.net.AddHost(), r.net.AddHost()
	ab, ba := r.net.NewLink(link), r.net.NewLink(link)
	r.net.SetRoute(ha.ID(), hb.ID(), ab)
	r.net.SetRoute(hb.ID(), ha.ID(), ba)
	r.links = []*netsim.Link{ab, ba}

	var p netapi.Provider = r.net
	genClock := r.net.Clock()
	if rec != nil {
		p = tap.Wrap(r.net, rec)
		genClock = tap.Clock(genClock, rec, tap.WorkloadTick)
	}
	r.gen = event.NewManager(genClock)
	mk := func(h *netsim.Host, nm string, salt int64) (*adaptive.Node, error) {
		return adaptive.NewNode(adaptive.WithProvider(p), adaptive.WithHost(h.ID()),
			adaptive.WithSeed(seed+salt), adaptive.WithName(name+"-"+nm),
			adaptive.WithObservability(adaptive.Observe{Repository: r.repo}))
	}
	var err error
	if r.client, err = mk(ha, "c", 1); err != nil {
		return nil, err
	}
	if r.server, err = mk(hb, "s", 2); err != nil {
		return nil, err
	}
	info := adaptive.StaticPathInfo{Bandwidth: link.Bandwidth, RTT: 2 * link.PropDelay, BER: link.BER, MTU: link.MTU}
	r.client.SeedPath(hb.ID(), info)
	r.server.SeedPath(ha.ID(), info)
	return r, nil
}

func (r *simRig) close() {
	r.client.Close()
	r.server.Close()
}

// run advances virtual time to target inside one sim.run span.
func (r *simRig) run(target time.Duration) {
	if r.rec != nil {
		r.rec.Begin(tap.SimRun, 0)
	}
	r.k.RunUntil(target)
	if r.rec != nil {
		r.rec.End(0)
	}
}

func (r *simRig) snapshot() snapshot {
	s := takeSnapshot(r.repo, r.client, r.server)
	s.addLinks(r.links...)
	s.kernelEvents = r.k.Executed()
	return s
}

// dialSpec opens one DialSpec connection inside an app.dial span.
func (r *simRig) dialSpec(spec adaptive.Spec, localPort, port uint16) (*adaptive.Conn, error) {
	if r.rec != nil {
		r.rec.Begin(tap.AppDial, 0)
		defer r.rec.End(1)
	}
	return r.client.DialSpec(spec, r.server.Addr(), localPort, port)
}

// newStream registers a checked reliable stream toward conn.
func (r *simRig) newStream(conn *adaptive.Conn) *stream {
	s := &stream{rig: r, out: conn, conn: conn.ConnID()}
	r.streams = append(r.streams, s)
	return s
}

func (r *simRig) newSink(rung string, st *stream) *sink {
	k := &sink{rig: r, st: st, rung: rung}
	r.sinks = append(r.sinks, k)
	return k
}

// dataByRung sums delivered data PDUs per session-ladder rung.
func (r *simRig) dataByRung() map[string]float64 {
	out := make(map[string]float64)
	for _, k := range r.sinks {
		out[k.rung] += float64(k.segs)
	}
	return out
}

// countedSender counts loss-tolerant messages as attempted operations and
// wraps Conn.Send in an app.send span.
type countedSender struct {
	rig  *simRig
	out  *adaptive.Conn
	conn uint32
}

func (c *countedSender) Send(data []byte) error {
	c.rig.attempted++
	rec := c.rig.rec
	if rec != nil {
		rec.Begin(tap.AppSend, c.conn)
	}
	err := c.out.Send(data)
	if rec != nil {
		rec.End(1)
	}
	return err
}

// echo installs the request-response server on an accepted connection: each
// request is checked against the client's stream and sent straight back
// (Send copies synchronously, so the delivered slice needs no copy).
func (r *simRig) echo(c *adaptive.Conn, k *sink) {
	c.OnDelivery(func(d session.Delivery) {
		rec := r.rec
		if rec != nil {
			rec.Begin(tap.AppDeliver, c.ConnID())
		}
		k.observe(d)
		if d.EOM {
			if rec != nil {
				rec.Begin(tap.AppSend, c.ConnID())
			}
			c.Send(d.Msg.Bytes())
			if rec != nil {
				rec.End(1)
			}
		}
		d.Msg.Release()
		if rec != nil {
			rec.End(1)
		}
	})
}

// onEcho is the request-response client's receiver: the response must carry
// the request's bytes.
func (r *simRig) onEcho(st *stream, next func(session.Delivery)) func(session.Delivery) {
	return func(d session.Delivery) {
		rec := r.rec
		if rec != nil {
			rec.Begin(tap.AppDeliver, st.conn)
		}
		now := r.k.Now()
		if now >= r.winStart && now < r.winEnd {
			r.payload += uint64(d.Msg.Len())
		}
		r.payloadAll += uint64(d.Msg.Len())
		if crc32.Checksum(d.Msg.Bytes(), castagnoli) != st.lastSent {
			st.bad++
		}
		next(d) // releases the message and schedules the next request
		if rec != nil {
			rec.End(1)
		}
	}
}

// measure covers the fixed virtual span on this rig and then, until d of wall
// time has passed, covers it again on fresh rigs built from the same seed.
// Provider-clock metrics (goodput, latency), every counter and the output
// checks belong to the span, so they repeat for a seed on any machine; the
// wall-clock figures are medians over wall slices of every pass. (Running one
// rig on until the deadline instead would make how much is checked, and
// whether a rare failure is met, depend on the machine's speed.)
func (r *simRig) measure(d time.Duration) (*measurement, error) {
	deadline := time.Now().Add(d)
	m := &measurement{}
	r.openWindow()
	att0 := r.attempted
	s0 := r.snapshot()
	rx0 := r.net.TotalReceived()
	data0 := r.dataByRung()
	est0 := len(r.establishUs)
	mark := markTrace(r.rec)

	sl := newSlicer(rx0, r.payloadAll)
	r.runSpan(sl, time.Time{})
	// Close the slice before the (comparatively slow) snapshot so reading
	// counters never counts as simulation time.
	sl.finish(simSlice, r.net.TotalReceived(), r.payloadAll)
	m.peakRSSMiB = sl.peakRSS
	rx1 := r.net.TotalReceived()
	if m.trace = mark.close(rx1 - rx0); m.trace != nil {
		m.trace.msgs = r.attempted - att0
		m.trace.dataByRung = r.dataByRung()
		for k, v := range data0 {
			m.trace.dataByRung[k] -= v
		}
	}
	s1 := r.snapshot()
	m.goodputMbps = float64(r.payload) * 8 / r.span.Seconds() / 1e6
	m.latUs = append([]float64(nil), r.latUs...)
	sorted := append([]float64(nil), m.latUs...)
	sort.Float64s(sorted)
	m.latP50Us, m.latP99Us = quantile(sorted, 0.5), quantile(sorted, 0.99)
	m.attempted = r.attempted - att0
	m.counters = counterMetrics(s0, s1, rx1-rx0)
	if est := r.establishUs[est0:]; len(est) > 0 {
		m.counters["conn.establish_virt_p50_us"] = median(est)
	}
	m.counters["sim.virtual_pkts"] = float64(rx1 - rx0)
	m.counters["sim.virtual_events"] = float64(s1.kernelEvents - s0.kernelEvents)
	r.check(m)

	first := r.print(rx1 - rx0)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		next, err := r.again()
		if err != nil {
			return nil, err
		}
		m.setupsS = append(m.setupsS, time.Since(t0).Seconds())
		next.openWindow()
		nrx0 := next.net.TotalReceived()
		sl.resume(nrx0, next.payloadAll)
		whole := next.runSpan(sl, deadline)
		sl.finish(simSlice, next.net.TotalReceived(), next.payloadAll)
		next.check(m)
		if got := next.print(next.net.TotalReceived() - nrx0); whole && got != first {
			m.fail(1, "%s: two passes over one seed differ: %+v, then %+v", r.name, first, got)
		}
		next.close()
	}
	m.slices = sl.out
	return m, nil
}

// openWindow starts the fixed virtual span at the kernel's present time.
func (r *simRig) openWindow() {
	r.winStart = r.k.Now()
	r.winEnd = r.winStart + r.span
	r.payload, r.latUs = 0, r.latUs[:0]
}

// runSpan advances the rig to the end of its window, cutting a wall slice
// every simSlice. With a stop time it gives up once that has passed and
// reports false.
func (r *simRig) runSpan(sl *slicer, stop time.Time) bool {
	for r.k.Now() < r.winEnd {
		target := r.k.Now() + r.chunk
		if target > r.winEnd {
			target = r.winEnd
		}
		r.run(target)
		if !stop.IsZero() && !time.Now().Before(stop) {
			return false
		}
		if sl.age() >= simSlice {
			sl.cut(r.net.TotalReceived(), r.payloadAll)
		}
	}
	return true
}

// spanPrint is what two passes over one seed must agree on.
type spanPrint struct {
	pkts, payload uint64
	lats          int
	latSumUs      float64
}

func (r *simRig) print(pkts uint64) spanPrint {
	p := spanPrint{pkts: pkts, payload: r.payload, lats: len(r.latUs)}
	for _, v := range r.latUs {
		p.latSumUs += v
	}
	return p
}

// check applies the sim output checks to everything delivered so far.
func (r *simRig) check(m *measurement) {
	var bad, dups uint64
	for _, s := range r.streams {
		bad += s.bad
	}
	for _, k := range r.sinks {
		dups += k.dups
	}
	if bad > 0 {
		m.fail(bad, "%s: %d reliable messages differ from their source stream", r.name, bad)
	}
	if dups > 0 {
		m.fail(dups, "%s: %d duplicate deliveries on loss-tolerant sessions", r.name, dups)
	}
	if r.dialFails > 0 {
		m.fail(r.dialFails, "%s: %d dials did not establish", r.name, r.dialFails)
	}
	var incomplete uint64
	for _, c := range r.slots {
		incomplete += c.incomplete
	}
	if incomplete > 0 {
		m.fail(incomplete, "%s: %d messages undelivered when their connection closed", r.name, incomplete)
	}
}

// ---- sim_soak: the E10 mix on one kernel ----

const (
	soakSessions = 1000
	// soakWarmup covers every session's staggered start.
	soakWarmup = 1250 * time.Millisecond
)

var soakLink = netsim.LinkConfig{
	Bandwidth: 1e9,
	PropDelay: 500 * time.Microsecond,
	MTU:       1500,
	QueueLen:  1 << 22,
	Coalesce:  200 * time.Microsecond,
}

func setupSimSoak(seed int64, rec *tap.Recorder, scale float64) (rig, error) {
	r, err := buildSimSoak(seed, rec, scale)
	if err != nil {
		return nil, err
	}
	r.again = func() (*simRig, error) { return buildSimSoak(seed, rec, scale) }
	return r, nil
}

func buildSimSoak(seed int64, rec *tap.Recorder, scale float64) (*simRig, error) {
	// The path's delay is 500 µs give or take 5, by the seed: on a round
	// delay most full-size packets that open a coalescing window share one
	// latency to the nanosecond, and the median sits on that value for
	// nearly every seed.
	link := soakLink
	link.PropDelay += time.Duration(rand.New(rand.NewSource(seed^0x70726f70)).Int63n(10001)-5000) * time.Nanosecond
	r, err := newSimRig("sim_soak", seed, rec, link)
	if err != nil {
		return nil, err
	}
	r.chunk = 10 * time.Millisecond
	r.span = scaled(8*time.Second, scale)
	n := int(soakSessions * scale)
	if n < 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		if err := r.addSoakSession(i); err != nil {
			return nil, err
		}
	}
	r.run(soakWarmup)
	return r, nil
}

// addSoakSession adds session i of the mix (per 10: 2 voice CBR, 4 VBR video
// with FEC, 2 bulk selective-repeat, 2 OLTP request-response). Sizes and
// think times are drawn from the rig's seeded generator.
func (r *simRig) addSoakSession(i int) error {
	port, local := uint16(2000+i), uint16(30000+i)
	// Starts are spread over each class's own period (a video group of
	// pictures is one second), so the sessions of a class never burst in
	// step; E10 staggers over 20 ms only, which lines up all 400 intra frames
	// once a second and queues 25 ms of link time behind them.
	stagger := func(period time.Duration) time.Duration {
		return 10*time.Millisecond + time.Duration(r.rng.Int63n(int64(period)))
	}
	spec := mechanism.DefaultSpec()
	slot := i % 10
	switch {
	case slot < 2: // voice CBR: implicit, no recovery, unordered
		spec.ConnMgmt, spec.Recovery, spec.Order, spec.LossTolerant =
			adaptive.ConnImplicit, adaptive.RecoveryNone, adaptive.OrderNone, true
		k := r.newSink(rungNone, nil)
		r.server.Listen(port, nil, func(c *adaptive.Conn) { c.OnDelivery(k.onDelivery) })
		conn, err := r.dialSpec(spec, local, port)
		if err != nil {
			return err
		}
		g := &workload.CBR{Timers: r.gen, Out: &countedSender{r, conn, conn.ConnID()},
			MsgSize: 160, Interval: 20 * time.Millisecond}
		r.gen.Schedule(stagger(20*time.Millisecond), func() { g.Start(0) })
	case slot < 6: // VBR video: implicit, FEC-8, unordered
		spec.ConnMgmt, spec.Recovery, spec.FECGroup, spec.Order, spec.LossTolerant =
			adaptive.ConnImplicit, adaptive.RecoveryFEC, 8, adaptive.OrderNone, true
		k := r.newSink(rungFEC, nil)
		r.server.Listen(port, nil, func(c *adaptive.Conn) { c.OnDelivery(k.onDelivery) })
		conn, err := r.dialSpec(spec, local, port)
		if err != nil {
			return err
		}
		g := &workload.VBR{Timers: r.gen, Out: &countedSender{r, conn, conn.ConnID()},
			FrameRate: 30, MeanSize: 3800 + r.rng.Intn(401), Burst: 2, GroupLen: 30}
		r.gen.Schedule(stagger(time.Second), func() { g.Start(0) })
	case slot < 8: // bulk: selective repeat, window 64, 2 ms delayed ack
		spec.WindowSize, spec.RcvBufPDUs, spec.AckDelay = 64, 256, 2*time.Millisecond
		// A fresh think time per restart: with a fixed one every source is
		// periodic, the 200 bulk sessions collide in a pattern that repeats
		// each second, and the latency tail depends on the seed's phases.
		think := func() time.Duration {
			return 900*time.Millisecond + time.Duration(r.rng.Int63n(int64(200*time.Millisecond)))
		}
		var st *stream
		var g *workload.Bulk
		var again *event.Event
		start := func() { g.Start(r.k) }
		k := r.newSink(rungSRSeq, nil)
		r.server.Listen(port, nil, func(c *adaptive.Conn) {
			c.OnDelivery(func(d session.Delivery) {
				k.onDelivery(d)
				// The transfer restarts a think time after its last byte
				// arrived, so the mix stays steady.
				if d.EOM && st.pending() == 0 {
					if again == nil {
						again = r.gen.Schedule(think(), start)
					} else {
						again.Reset(think())
					}
				}
			})
		})
		conn, err := r.dialSpec(spec, local, port)
		if err != nil {
			return err
		}
		st = r.newStream(conn)
		k.st = st
		g = &workload.Bulk{Out: st, TotalSize: 128 << 10, ChunkSize: 16 << 10}
		r.gen.Schedule(stagger(time.Second), start)
	default: // OLTP: 256-byte request → echo, window 8
		spec.WindowSize = 8
		k := r.newSink(rungSRSeq, nil)
		r.server.Listen(port, nil, func(c *adaptive.Conn) { r.echo(c, k) })
		conn, err := r.dialSpec(spec, local, port)
		if err != nil {
			return err
		}
		st := r.newStream(conn)
		k.st = st
		rr := &workload.ReqResp{Timers: r.gen, Out: st, ReqSize: 256,
			Think: 4*time.Millisecond + time.Duration(r.rng.Int63n(int64(2*time.Millisecond)))}
		conn.OnDelivery(r.onEcho(st, rr.OnResponse))
		r.gen.Schedule(stagger(10*time.Millisecond), func() { rr.Start(1 << 40) })
	}
	return nil
}
