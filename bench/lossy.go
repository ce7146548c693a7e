package main

import (
	"time"

	"adaptive"
	"adaptive/bench/tap"
	"adaptive/internal/event"
	"adaptive/internal/mantts"
	"adaptive/internal/mechanism"
	"adaptive/internal/netsim"
	"adaptive/internal/session"
	"adaptive/internal/workload"
)

// sim_lossy: the share of traffic that leaves the fast path. 48 sessions
// over a 100 Mbps / 10 ms path with a seeded impairment on both directions;
// the 32 reliable ACD-dialled sessions are closed after two virtual seconds
// of traffic and dialled again.

var lossyLink = netsim.LinkConfig{
	Bandwidth: 100e6,
	PropDelay: 10 * time.Millisecond,
	MTU:       1500,
	QueueLen:  1 << 20,
}

// lossyImpairment is Gilbert–Elliott burst loss averaging ≈2 % (bad state 4 %
// of packets, half of them lost, mean burst 4 packets) plus 1 % reorder,
// 0.5 % duplication and 0.1 % corruption. The kernel's seeded generator
// draws every decision, so the fault schedule is a function of --seed.
var lossyImpairment = netsim.Impairment{
	PGoodToBad:   0.0104,
	PBadToGood:   0.25,
	LossBad:      0.5,
	ReorderRate:  0.01,
	ReorderDelay: 3 * time.Millisecond,
	DupRate:      0.005,
	CorruptRate:  0.001,
}

const (
	lossyPerKind = 16
	lifeTraffic  = 2 * time.Second // virtual traffic per connection life
	redialAfter  = 10 * time.Millisecond
	// lossyWarmup lets every slot live through its first connection or two.
	lossyWarmup = 3 * lifeTraffic
)

type slotKind uint8

const (
	slotBulk slotKind = iota // selective-repeat bulk from the File Transfer ACD
	slotRR                   // go-back-n request-response from the OLTP ACD
)

// churnSlot is one ACD-dialled session position: it lives through many
// connections, one after another.
type churnSlot struct {
	rig   *simRig
	kind  slotKind
	port  uint16
	segue bool // reconfigure SR→GBN→SR mid-life (half the bulk slots)
	think time.Duration

	conn     *adaptive.Conn
	st       *stream
	dialedAt time.Duration
	up       bool

	stopEv, segEv1, segEv2, redialEv, againEv *event.Event
	bulk                                      *workload.Bulk
	incomplete                                uint64
}

func setupSimLossy(seed int64, rec *tap.Recorder, scale float64) (rig, error) {
	r, err := buildSimLossy(seed, rec, scale)
	if err != nil {
		return nil, err
	}
	r.again = func() (*simRig, error) { return buildSimLossy(seed, rec, scale) }
	return r, nil
}

func buildSimLossy(seed int64, rec *tap.Recorder, scale float64) (*simRig, error) {
	r, err := newSimRig("sim_lossy", seed, rec, lossyLink)
	if err != nil {
		return nil, err
	}
	r.chunk = 100 * time.Millisecond
	r.span = scaled(60*time.Second, scale)
	r.byConn = make(map[uint32]*churnSlot)
	for _, l := range r.links {
		imp := lossyImpairment
		if err := l.SetImpairment(&imp); err != nil {
			return nil, err
		}
	}
	r.client.Subscribe(r.onNote)

	perKind := int(lossyPerKind * scale)
	if perKind < 2 {
		perKind = 2
	}
	for i := 0; i < perKind; i++ {
		bulk := &churnSlot{rig: r, kind: slotBulk, port: uint16(4000 + i), segue: i%2 == 0,
			think: 40*time.Millisecond + time.Duration(r.rng.Int63n(int64(20*time.Millisecond)))}
		rr := &churnSlot{rig: r, kind: slotRR, port: uint16(5000 + i),
			think: 4*time.Millisecond + time.Duration(r.rng.Int63n(int64(2*time.Millisecond)))}
		for _, c := range []*churnSlot{bulk, rr} {
			c := c
			r.slots = append(r.slots, c)
			if err := r.server.Listen(c.port, nil, c.accept); err != nil {
				return nil, err
			}
			// Lives start spread over the first two seconds so the closes
			// and dials of different slots never line up.
			c.redialEv = r.gen.Schedule(time.Duration(r.rng.Int63n(int64(lifeTraffic))), c.dial)
		}
		if err := r.addLossyVideo(i); err != nil {
			return nil, err
		}
	}
	r.run(lossyWarmup)
	return r, nil
}

// addLossyVideo adds one long-lived VBR video session: FEC-hybrid (reliable,
// NAK fallback, stream-checked) for even i, pure FEC (loss-tolerant,
// duplicate-checked) for odd i.
func (r *simRig) addLossyVideo(i int) error {
	port, local := uint16(6000+i), uint16(36000+i)
	spec := mechanism.DefaultSpec()
	// Explicit handshake, not the implicit one sim_soak's video uses: under
	// loss, a FEC group that holds the implicit-config PDU reconstructs
	// garbage (the receiver strips the piggybacked config before folding the
	// PDU into the group's parity accumulator; the sender's parity covers
	// it). See README.md, "Found while building".
	spec.ConnMgmt, spec.FECGroup, spec.Order = adaptive.ConnExplicit2Way, 8, adaptive.OrderNone
	spec.GapDeadline = 100 * time.Millisecond
	k := r.newSink(rungFEC, nil)
	if err := r.server.Listen(port, nil, func(c *adaptive.Conn) { c.OnDelivery(k.onDelivery) }); err != nil {
		return err
	}
	if i%2 == 0 {
		spec.Recovery = adaptive.RecoveryFECHybrid
	} else {
		spec.Recovery, spec.LossTolerant = adaptive.RecoveryFEC, true
	}
	conn, err := r.dialSpec(spec, local, port)
	if err != nil {
		return err
	}
	var out workload.Sender = &countedSender{r, conn, conn.ConnID()}
	if i%2 == 0 {
		k.st = r.newStream(conn)
		out = k.st
	}
	g := &workload.VBR{Timers: r.gen, Out: out, FrameRate: 30,
		MeanSize: 3000 + r.rng.Intn(2001), Burst: 2, GroupLen: 30}
	r.gen.Schedule(time.Duration(r.rng.Int63n(int64(33*time.Millisecond))), func() { g.Start(0) })
	return nil
}

func (c *churnSlot) acd() *adaptive.ACD {
	app := "File Transfer"
	if c.kind == slotRR {
		app = "On-Line Transaction Processing"
	}
	a := mantts.ACDForProfile(mantts.Profile(app))
	a.Class = nil // make Stage I classify, not short-circuit
	a.Participants = []adaptive.Addr{c.rig.server.Addr()}
	a.RemotePort = c.port
	return a
}

// dial opens the slot's next connection through the full MANTTS
// transformation (Classify → DeriveSCS → Synthesize → explicit handshake).
func (c *churnSlot) dial() {
	r := c.rig
	r.dials++
	r.attempted++
	if r.rec != nil {
		r.rec.Begin(tap.AppDial, 0)
	}
	conn, err := r.client.Dial(c.acd(), nil)
	if r.rec != nil {
		r.rec.End(1)
	}
	if err != nil {
		r.dialFails++
		c.redialEv.Reset(redialAfter)
		return
	}
	c.conn, c.up, c.dialedAt = conn, false, r.k.Now()
	c.st = r.newStream(conn)
	r.byConn[conn.ConnID()] = c
}

// accept is the slot's listener: each life gets a fresh sink on the life's
// stream.
func (c *churnSlot) accept(conn *adaptive.Conn) {
	if c.kind == slotRR {
		c.rig.echo(conn, c.rig.newSink(rungGBN, c.st))
		return
	}
	k := c.rig.newSink(rungLossy, c.st)
	st := c.st
	conn.OnDelivery(func(d session.Delivery) {
		k.onDelivery(d)
		if d.EOM && st.pending() == 0 && !st.stopped {
			c.againEv = rearm(c.rig.gen, c.againEv, c.think, c.startBulk)
		}
	})
}

func (c *churnSlot) startBulk() { c.bulk.Start(c.rig.k) }

// onNote is the client node's session-event listener.
func (r *simRig) onNote(connID uint32, n adaptive.Notification) {
	c := r.byConn[connID]
	if c == nil {
		return
	}
	switch n.Kind {
	case adaptive.NoteEstablished:
		c.established()
	case adaptive.NoteEstablishFailed:
		r.dialFails++
		delete(r.byConn, connID)
		c.redialEv.Reset(redialAfter)
	case adaptive.NoteClosed:
		c.incomplete += c.st.pending()
		delete(r.byConn, connID)
		c.redialEv.Reset(redialAfter)
	}
}

func (c *churnSlot) established() {
	if c.up {
		return
	}
	c.up = true
	r := c.rig
	r.establishUs = append(r.establishUs, float64(r.k.Now()-c.dialedAt)/float64(time.Microsecond))
	c.stopEv = rearm(r.gen, c.stopEv, lifeTraffic, c.stop)
	switch c.kind {
	case slotBulk:
		c.bulk = &workload.Bulk{Out: c.st, TotalSize: 64 << 10, ChunkSize: 16 << 10}
		c.startBulk()
		if c.segue {
			c.segEv1 = rearm(r.gen, c.segEv1, lifeTraffic/3, func() { c.reconfigure(adaptive.RecoveryGoBackN) })
			c.segEv2 = rearm(r.gen, c.segEv2, 2*lifeTraffic/3, func() { c.reconfigure(adaptive.RecoverySelectiveRepeat) })
		}
	case slotRR:
		// The OLTP ACD derives selective repeat; the slot runs go-back-n.
		c.reconfigure(adaptive.RecoveryGoBackN)
		rr := &workload.ReqResp{Timers: r.gen, Out: c.st, ReqSize: 256, Think: c.think}
		c.conn.OnDelivery(r.onEcho(c.st, rr.OnResponse))
		rr.Start(1 << 40)
	}
}

func (c *churnSlot) reconfigure(to adaptive.RecoveryKind) {
	r := c.rig
	if c.st.stopped || c.conn.Closed() {
		return
	}
	r.attempted++
	if r.rec != nil {
		r.rec.Begin(tap.AppReconfigure, c.st.conn)
	}
	err := c.conn.Reconfigure(func(s *adaptive.Spec) { s.Recovery = to })
	if r.rec != nil {
		r.rec.End(1)
	}
	if err != nil {
		c.st.bad++
	}
}

// stop ends the life's traffic and closes gracefully: queued data drains,
// then NoteClosed re-dials.
func (c *churnSlot) stop() {
	c.st.stopped = true
	r := c.rig
	if r.rec != nil {
		r.rec.Begin(tap.AppClose, c.st.conn)
	}
	c.conn.Close()
	if r.rec != nil {
		r.rec.End(1)
	}
}

// rearm cancels ev, if there is one, and schedules fn after d.
func rearm(m *event.Manager, ev *event.Event, d time.Duration, fn func()) *event.Event {
	if ev != nil {
		ev.Cancel()
	}
	return m.Schedule(d, fn)
}
