package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"adaptive/bench/tap"
	"adaptive/internal/arbiter"
	"adaptive/internal/event"
	"adaptive/internal/mantts"
	"adaptive/internal/mechanism"
	"adaptive/internal/message"
	"adaptive/internal/netapi"
	"adaptive/internal/netsim"
	"adaptive/internal/protograph"
	"adaptive/internal/session"
	"adaptive/internal/sim"
	"adaptive/internal/tko"
	"adaptive/internal/trace"
	"adaptive/internal/udpnet"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
)

// The layer rungs measure what the boundary spans cannot split: one layer at
// a time, through its public functions, fed the frame mix a traced workload
// logged at the tap. Each rung reports ns/op and allocs/op; the difference
// between adjacent rungs of the session ladder is the cost of the layer the
// upper rung added.

// rungResult is one rung's figures.
type rungResult struct {
	Name   string  `json:"name"`
	Ns     float64 `json:"ns_per_op"`
	Allocs float64 `json:"allocs_per_op"`
	Ops    int     `json:"ops"`
	Err    string  `json:"error,omitempty"`
}

// timeRung runs op(n) with growing n until one run lasts at least budget,
// then reports that run.
func timeRung(name string, budget time.Duration, op func(n int) error) rungResult {
	res := rungResult{Name: name}
	for n := 256; ; n *= 4 {
		a0 := rtNow().mallocs
		t0 := time.Now()
		if err := op(n); err != nil {
			res.Err = err.Error()
			return res
		}
		el := time.Since(t0)
		if el >= budget || n >= 1<<24 {
			res.Ns = float64(el.Nanoseconds()) / float64(n)
			res.Allocs = float64(rtNow().mallocs-a0) / float64(n)
			res.Ops = n
			return res
		}
	}
}

// mix is the traffic a rung replays: the tap's frame log, or a synthetic
// stand-in (1400-byte CRC-32 data with one ack per two data PDUs) when no
// traced run supplied one.
type mix struct {
	frames []tap.Frame
	data   []tap.Frame // the data PDUs of frames
}

func newMix(frames []tap.Frame) mix {
	if len(frames) == 0 {
		for i := 0; i < 96; i++ {
			frames = append(frames, tap.Frame{Type: uint8(wire.TData), Ck: uint8(wire.CkCRC32), Size: 1400})
			if i%2 == 1 {
				frames = append(frames, tap.Frame{Type: uint8(wire.TAck), Ck: uint8(wire.CkCRC32), Size: wire.Overhead})
			}
		}
	}
	m := mix{frames: frames}
	for _, f := range frames {
		if wire.Type(f.Type) == wire.TData && f.Size > wire.Overhead {
			m.data = append(m.data, f)
		}
	}
	if len(m.data) == 0 {
		m.data = []tap.Frame{{Type: uint8(wire.TData), Ck: uint8(wire.CkCRC32), Size: 1400}}
	}
	return m
}

// payloadOf is the application payload a logged frame carried.
func payloadOf(f tap.Frame) int {
	if n := int(f.Size) - wire.Overhead; n > 0 {
		return n
	}
	return 0
}

// runRungs runs every layer rung against the mix.
func runRungs(m mix, budget time.Duration) map[string]rungResult {
	out := make(map[string]rungResult)
	add := func(r rungResult) { out[r.Name] = r }

	enc, dec := rungWire(m, budget)
	add(enc)
	add(dec)
	add(rungMessage(m, budget))

	base := mechanism.DefaultSpec()
	base.ConnMgmt, base.Recovery, base.Order = mechanism.ConnImplicit, mechanism.RecoveryNone, mechanism.OrderNone
	base.WindowSize, base.RcvBufPDUs = 64, 256
	with := func(f func(*mechanism.Spec)) mechanism.Spec { s := base; f(&s); return s }
	add(rungPair("session.null_out_ns_per_pdu", base, m, budget, 0))
	add(rungPair("xmit.window_ns_per_pdu", with(func(s *mechanism.Spec) { s.Window = mechanism.WindowAdaptive }), m, budget, 0))
	add(rungPair("xmit.gaprate_ns_per_pdu", with(func(s *mechanism.Spec) { s.RateBps = 1e12 }), m, budget, 0))
	sr := with(func(s *mechanism.Spec) { s.Recovery = mechanism.RecoverySelectiveRepeat })
	add(rungPair("reliable.sr_ns_per_pdu", sr, m, budget, 0))
	add(rungPair("reliable.gbn_ns_per_pdu", with(func(s *mechanism.Spec) { s.Recovery = mechanism.RecoveryGoBackN }), m, budget, 0))
	add(rungPair("reliable.fec_ns_per_pdu", with(func(s *mechanism.Spec) { s.Recovery = mechanism.RecoveryFECHybrid }), m, budget, 0))
	add(rungPair("reliable.sr_lossy_ns_per_pdu", sr, m, budget, 50))
	add(rungPair("order.sequenced_ns_per_pdu", with(func(s *mechanism.Spec) {
		s.Recovery, s.Order = mechanism.RecoverySelectiveRepeat, mechanism.OrderSequenced
	}), m, budget, 0))

	add(rungDemux("protograph.demux_ns_per_pkt_n1", 1, budget))
	add(rungDemux("protograph.demux_ns_per_pkt_n1000", 1000, budget))
	add(rungUnites(budget))
	add(rungEvent(budget))
	add(rungKernel(budget))
	add(rungNetsim(m, budget))
	add(rungBlast(m, budget))
	add(rungTransform(budget))
	hit, miss := rungSynthesize(budget)
	add(hit)
	add(miss)
	add(rungPolicy(budget))
	add(rungArbiter(budget))
	add(rungTraceNil(budget))
	return out
}

// ---- wire, message ----

func rungWire(m mix, budget time.Duration) (enc, dec rungResult) {
	n := len(m.frames)
	if n > 4096 {
		n = 4096
	}
	pdus := make([]*wire.PDU, n)
	pkts := make([][]byte, n)
	for i, f := range m.frames[:n] {
		p := &wire.PDU{Header: wire.Header{Type: wire.Type(f.Type), ConnID: 7, Seq: uint32(i)}}
		if sz := payloadOf(f); sz > 0 {
			p.Payload = message.AllocPooled(sz, message.DefaultHeadroom)
		}
		pdus[i] = p
		wire.EncodeTo(p, wire.ChecksumKind(f.Ck), func(pkt []byte) error {
			pkts[i] = append([]byte(nil), pkt...)
			return nil
		})
	}
	var sunk int
	emit := func(pkt []byte) error { sunk += len(pkt); return nil }
	enc = timeRung("wire.encode_ns_per_pdu", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			j := i % n
			wire.EncodeTo(pdus[j], wire.ChecksumKind(m.frames[j].Ck), emit)
		}
		return nil
	})
	dec = timeRung("wire.decode_ns_per_pdu", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			p := wire.GetPDU()
			if err := wire.DecodeInto(pkts[i%n], p); err != nil {
				return err
			}
			wire.PutPDU(p)
		}
		return nil
	})
	for _, p := range pdus {
		p.ReleasePayload()
	}
	return enc, dec
}

func rungMessage(m mix, budget time.Duration) rungResult {
	return timeRung("message.alloc_release_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			message.AllocPooled(payloadOf(m.data[i%len(m.data)]), message.DefaultHeadroom).Release()
		}
		return nil
	})
}

// ---- the session ladder ----

// pipe is a session.Outbound that queues copies of what it is handed; the
// pair drains it into the peer session. dropEvery > 0 loses every n-th data
// packet (the lossy replay).
type pipe struct {
	q         [][]byte
	free      [][]byte
	dropEvery int
	seen      int
}

func (p *pipe) PathMTU(netapi.Addr) int { return 1500 }

func (p *pipe) Transmit(pkt []byte, _ netapi.Addr) error {
	if typ, _, _ := tap.HeaderFields(pkt); p.dropEvery > 0 && wire.Type(typ) == wire.TData {
		p.seen++
		if p.seen%p.dropEvery == 0 {
			return nil
		}
	}
	var b []byte
	if n := len(p.free); n > 0 {
		b, p.free = p.free[n-1][:0], p.free[:n-1]
	}
	p.q = append(p.q, append(b, pkt...))
	return nil
}

// pair is two sessions joined by pipes on a private kernel: the sender's
// null Outbound plus just enough peer to keep its window open.
type pair struct {
	k         *sim.Kernel
	a, b      *session.Session
	ab, ba    *pipe
	delivered int
}

func newPair(spec mechanism.Spec, dropEvery int) (*pair, error) {
	p := &pair{k: sim.NewKernel(1), ab: &pipe{dropEvery: dropEvery}, ba: &pipe{}}
	clock := netsim.New(p.k).Clock()
	reg := tko.DefaultRegistry()
	mk := func(out session.Outbound, local, peer uint16) (*session.Session, error) {
		sp := spec
		slots, err := reg.Build(&sp)
		if err != nil {
			return nil, err
		}
		return session.New(session.Params{ConnID: 42, LocalPort: local, PeerPort: peer, Spec: &sp,
			Slots: slots, Factory: reg.Build, Clock: clock, Timers: event.NewManager(clock),
			Rand: rand.New(rand.NewSource(1)), Out: out}), nil
	}
	var err error
	if p.a, err = mk(p.ab, 1, 2); err != nil {
		return nil, err
	}
	if p.b, err = mk(p.ba, 2, 1); err != nil {
		return nil, err
	}
	p.b.SetReceiver(func(d session.Delivery) {
		d.Msg.Release()
		p.delivered++
	})
	p.a.Open()
	p.b.Accept()
	return p, nil
}

func feed(s *session.Session, from *pipe) bool {
	if len(from.q) == 0 {
		return false
	}
	q := from.q
	from.q = nil
	for _, pkt := range q {
		pdu := wire.GetPDU()
		if err := wire.DecodeInto(pkt, pdu); err != nil {
			wire.PutPDU(pdu)
		} else {
			s.HandlePDU(pdu)
		}
		from.free = append(from.free, pkt)
	}
	if from.q == nil {
		from.q = q[:0]
	}
	return true
}

// step sends one message and runs both sessions until the pipes are empty.
func (p *pair) step(payload []byte) error {
	if err := p.a.Send(payload); err != nil {
		return err
	}
	p.settle()
	return nil
}

func (p *pair) settle() {
	for feed(p.b, p.ab) || feed(p.a, p.ba) {
	}
}

// tick lets virtual time pass so timers (NAK throttles, RTO) can fire and
// the kernel can reap the RTO re-arms every send and ack cancel. It runs once
// per pairTick sends and jumps past the RTO horizon: finding the next live
// timer walks the canceled ones, which a call per send would make the rung's
// whole cost.
func (p *pair) tick(d time.Duration) {
	p.k.RunFor(d)
	p.settle()
}

const pairTick = 1024

func rungPair(name string, spec mechanism.Spec, m mix, budget time.Duration, dropEvery int) rungResult {
	p, err := newPair(spec, dropEvery)
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	payload := make([]byte, spec.MSS)
	sent := 0
	res := timeRung(name, budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			sz := payloadOf(m.data[i%len(m.data)])
			if sz > spec.MSS-256 {
				sz = spec.MSS - 256 // leave room for the implicit config blob: one PDU per op
			}
			if err := p.step(payload[:sz]); err != nil {
				return err
			}
			if i%pairTick == pairTick-1 {
				p.tick(250 * time.Millisecond)
			}
		}
		sent += ops
		return nil
	})
	// Let recovery finish, then insist the rung really carried its traffic.
	for i := 0; i < 200 && p.delivered < sent; i++ {
		p.tick(10 * time.Millisecond)
	}
	if res.Err == "" && p.delivered < sent && spec.Recovery != mechanism.RecoveryNone {
		res.Err = fmt.Sprintf("delivered %d of %d", p.delivered, sent)
	}
	return res
}

// ---- protograph demux over a null endpoint ----

type nullProvider struct {
	clock netapi.Clock
	ep    *nullEndpoint
}

func (n *nullProvider) Clock() netapi.Clock { return n.clock }
func (n *nullProvider) Open(host netapi.HostID, port uint16) (netapi.Endpoint, error) {
	n.ep = &nullEndpoint{addr: netapi.Addr{Host: host, Port: port}}
	return n.ep, nil
}

type nullEndpoint struct {
	addr netapi.Addr
	recv netapi.Receiver
}

func (e *nullEndpoint) Send([]byte, netapi.Addr) error { return nil }
func (e *nullEndpoint) SetReceiver(r netapi.Receiver)  { e.recv = r }
func (e *nullEndpoint) LocalAddr() netapi.Addr         { return e.addr }
func (e *nullEndpoint) PathMTU(netapi.Addr) int        { return 1500 }
func (e *nullEndpoint) Close() error                   { return nil }

// Header offsets rungDemux patches in place (checksum kind none);
// checkWireLayout holds them to wire.EncodeTo at start-up.
const (
	offFlags = 1
	offSeq   = 12
	offAux   = 22
)

func rungDemux(name string, sessions int, budget time.Duration) rungResult {
	np := &nullProvider{clock: netsim.New(sim.NewKernel(1)).Clock()}
	st, err := protograph.NewStack(protograph.Config{Provider: np, Host: 2, Seed: 1})
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	delivered := 0
	st.Listen(80, &protograph.Listener{OnAccept: func(s *session.Session) {
		s.SetReceiver(func(d session.Delivery) {
			d.Msg.Release()
			delivered++
		})
	}})
	spec := mechanism.DefaultSpec()
	spec.ConnMgmt, spec.Recovery, spec.Order, spec.Checksum =
		mechanism.ConnImplicit, mechanism.RecoveryNone, mechanism.OrderNone, wire.CkNone
	blob := mechanism.EncodeSpec(&spec)
	from := netapi.Addr{Host: 1, Port: protograph.DefaultSAPPort}
	pkts := make([][]byte, sessions)
	seqs := make([]uint32, sessions)
	for i := range pkts {
		// The opening PDU carries the piggybacked config so the listener
		// spawns the passive session; later PDUs reuse the packet with the
		// flag cleared and the sequence patched (checksum kind none).
		body := message.AllocPooled(len(blob)+160, message.DefaultHeadroom)
		copy(body.Bytes(), blob)
		p := &wire.PDU{Header: wire.Header{Type: wire.TData, Flags: wire.FlagImplicitCfg | wire.FlagEOM,
			ConnID: uint32(1000 + i), SrcPort: uint16(2000 + i), DstPort: 80, Aux: uint16(len(blob))}, Payload: body}
		wire.EncodeTo(p, wire.CkNone, func(pkt []byte) error {
			pkts[i] = append([]byte(nil), pkt...)
			return nil
		})
		body.Release()
		np.ep.recv(pkts[i], from)
		pkts[i][offFlags] &^= wire.FlagImplicitCfg
		binary.BigEndian.PutUint16(pkts[i][offAux:], 0)
	}
	fed := sessions
	res := timeRung(name, budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			j := i % sessions
			seqs[j]++
			binary.BigEndian.PutUint32(pkts[j][offSeq:], seqs[j])
			np.ep.recv(pkts[j], from)
		}
		fed += ops
		return nil
	})
	if res.Err == "" && delivered != fed {
		res.Err = fmt.Sprintf("delivered %d of %d", delivered, fed)
	}
	return res
}

// ---- unites, event, sim, netsim, udpnet ----

func rungUnites(budget time.Duration) rungResult {
	r := unites.NewRecorder("rung")
	return timeRung("unites.record_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			r.Count("pdu.sent", 1)
			r.Sample("lat", float64(i&1023))
		}
		return nil
	})
}

func rungEvent(budget time.Duration) rungResult {
	k := sim.NewKernel(1)
	m := event.NewManager(netsim.New(k).Clock())
	ev := m.Schedule(10*time.Millisecond, func() {})
	return timeRung("event.rearm_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			ev.Reset(10 * time.Millisecond) // the RTO re-arm of every send and ack
			if i&4095 == 4095 {
				k.RunFor(20 * time.Millisecond) // past the horizon: reap the canceled entries
			}
		}
		return nil
	})
}

func rungKernel(budget time.Duration) rungResult {
	k := sim.NewKernel(1)
	fn := func() {}
	return timeRung("sim.event_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			k.Schedule(time.Microsecond, fn)
			k.Step()
		}
		return nil
	})
}

func rungNetsim(m mix, budget time.Duration) rungResult {
	const name = "netsim.forward_ns_per_pkt"
	k := sim.NewKernel(1)
	net := netsim.New(k)
	a, b := net.AddHost(), net.AddHost()
	net.SetRoute(a.ID(), b.ID(), net.NewLink(soakLink))
	src, err := net.Open(a.ID(), 10)
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	dst, err := net.Open(b.ID(), 20)
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	got := 0
	dst.SetReceiver(func([]byte, netapi.Addr) { got++ })
	buf := make([]byte, 1500)
	sent := 0
	res := timeRung(name, budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			src.Send(buf[:m.frames[i%len(m.frames)].Size], dst.LocalAddr())
			if i&63 == 63 {
				k.RunFor(time.Millisecond)
			}
		}
		sent += ops
		k.RunFor(10 * time.Millisecond)
		return nil
	})
	if res.Err == "" && got != sent {
		res.Err = fmt.Sprintf("delivered %d of %d", got, sent)
	}
	return res
}

// rungBlast is the E11 shape: the udpnet provider alone, mixed-size
// datagrams over loopback under an outstanding-datagram window, the sender
// blocking on a channel (never spinning) when the window is full.
func rungBlast(m mix, budget time.Duration) rungResult {
	const name, window = "udpnet.blast_ns_per_pkt", 2048
	prov := udpnet.New(udpnet.WithBatch(32), udpnet.WithFlushWindow(200*time.Microsecond),
		udpnet.WithQueueLen(1<<14), udpnet.WithSocketBuffers(8<<20, 8<<20))
	defer prov.Close()
	src, err := prov.Open(1, 10)
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	sink, err := prov.Open(2, 20)
	if err != nil {
		return rungResult{Name: name, Err: err.Error()}
	}
	var rx atomic.Uint64
	note := make(chan struct{}, 1)
	sink.(netapi.BatchEndpoint).SetBatchReceiver(func(batch []netapi.Packet) {
		rx.Add(uint64(len(batch)))
		select {
		case note <- struct{}{}:
		default:
		}
	})
	flush := src.(interface{ Flush() error }).Flush
	buf := make([]byte, 1500)
	var sent uint64
	wait := func(until func() bool) error {
		flush()
		deadline := time.After(10 * time.Second)
		for !until() {
			select {
			case <-note:
			case <-deadline:
				return fmt.Errorf("blast stalled at %d of %d", rx.Load(), sent)
			}
		}
		return nil
	}
	return timeRung(name, budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			if sent-rx.Load() >= window {
				if err := wait(func() bool { return sent-rx.Load() < window }); err != nil {
					return err
				}
			}
			if err := src.Send(buf[:m.frames[i%len(m.frames)].Size], netapi.Addr{Host: 2, Port: 20}); err != nil {
				return err
			}
			sent++
		}
		return wait(func() bool { return rx.Load() >= sent })
	})
}

// ---- mantts, tko, arbiter, trace ----

func rungTransform(budget time.Duration) rungResult {
	acds := make([]*mantts.ACD, len(mantts.Table1))
	for i := range mantts.Table1 {
		acds[i] = mantts.ACDForProfile(&mantts.Table1[i])
		acds[i].Class = nil
		acds[i].Participants = []netapi.Addr{{Host: 2, Port: 7700}}
	}
	path := mantts.PathState{RTT: 20 * time.Millisecond, Bandwidth: 100e6, MTU: 1500}
	var sunk int
	return timeRung("mantts.transform_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			a := acds[i%len(acds)]
			sunk += mantts.DeriveSCS(mantts.Classify(a), a, path).MSS
		}
		return nil
	})
}

func rungSynthesize(budget time.Duration) (hit, miss rungResult) {
	sy := tko.NewSynthesizer(tko.DefaultRegistry())
	spec := mechanism.DefaultSpec()
	hit = timeRung("tko.synthesize_hit_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			if _, err := sy.Synthesize(&spec); err != nil {
				return err
			}
		}
		return nil
	})
	miss = timeRung("tko.synthesize_miss_ns", budget, func(ops int) error {
		// Every distinct window size is a new template key.
		fresh := tko.NewSynthesizer(tko.DefaultRegistry())
		for i := 0; i < ops; i++ {
			s := spec
			s.WindowSize = 1 + i
			if _, err := fresh.Synthesize(&s); err != nil {
				return err
			}
		}
		return nil
	})
	return hit, miss
}

func rungPolicy(budget time.Duration) rungResult {
	eng := mantts.NewEngine([]mantts.Rule{
		{Cond: mantts.Cond{Metric: mantts.MetricLossRate, Op: mantts.OpGT, Threshold: 0.05},
			Action: mantts.Action{Kind: mantts.ActSetRecovery, Recovery: mechanism.RecoveryGoBackN}},
		{Cond: mantts.Cond{Metric: mantts.MetricRTT, Op: mantts.OpGT, Threshold: 0.2},
			Action: mantts.Action{Kind: mantts.ActSetRecovery, Recovery: mechanism.RecoveryFECHybrid}},
		{Cond: mantts.Cond{Metric: mantts.MetricCongestion, Op: mantts.OpGT, Threshold: 0.5},
			Action: mantts.Action{Kind: mantts.ActScaleRate, Factor: 0.5}},
	})
	values := map[mantts.MetricID]float64{mantts.MetricRTT: 0.02, mantts.MetricLossRate: 0.01,
		mantts.MetricCongestion: 0.1, mantts.MetricThroughputBps: 1e6}
	return timeRung("mantts.policy_eval_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			eng.Evaluate(time.Duration(i)*50*time.Millisecond, values)
		}
		return nil
	})
}

func rungArbiter(budget time.Duration) rungResult {
	a := arbiter.New(arbiter.DefaultPolicy())
	a.SeedCapacity(100e6)
	const sessions = 16
	for id := uint32(1); id <= sessions; id++ {
		a.Register(id, arbiter.Class(id%4), 1, 10e6, func(float64) {})
	}
	return timeRung("arbiter.grant_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			now := time.Duration(i) * 50 * time.Millisecond
			a.Observe(now, uint32(1+i%sessions), arbiter.Signal{LossRate: float64(i%7) / 1000,
				RTT: 20 * time.Millisecond, ThroughputBps: 5e6})
			a.Reallocate(now)
		}
		return nil
	})
}

func rungTraceNil(budget time.Duration) rungResult {
	var tr *trace.Recorder
	return timeRung("trace.emit_disabled_ns", budget, func(ops int) error {
		for i := 0; i < ops; i++ {
			tr.EmitKeyed(uint64(i), time.Duration(i), trace.KPDUSend, 1, uint64(i), 1, 1400)
		}
		return nil
	})
}
