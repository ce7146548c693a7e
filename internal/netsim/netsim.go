// Package netsim is the simulated high-performance network substrate.
//
// The paper's experiments vary network characteristics — channel speed
// (Ethernet 10 Mbps through ATM 622 Mbps), bit-error rate (copper 1e-4 vs
// fiber 1e-9), propagation delay (LAN vs satellite WAN), MTU (ATM cells vs
// FDDI frames), congestion at intermediate nodes, and multicast support
// (ADAPTIVE §2.1B). netsim models exactly those knobs on a deterministic
// discrete-event kernel:
//
//   - Link: bandwidth, propagation delay, MTU, finite queue (tail-drop
//     congestion loss), bit-error corruption, optional random drop/dup and
//     jitter.
//   - Host: a shared CPU that serializes per-PDU protocol processing; each
//     endpoint declares its processing cost, which is how the
//     throughput-preservation experiment (§2.1A) contrasts lightweight and
//     heavyweight stacks on identical hardware.
//   - Network: routing tables (mutable mid-run, for the terrestrial→satellite
//     route-switch experiment), multicast groups, cross-traffic generators.
package netsim

import (
	"time"

	"adaptive/internal/sim"
	"adaptive/internal/trace"
)

// LinkConfig sets the static characteristics of a link.
type LinkConfig struct {
	Name      string
	Bandwidth float64       // bits per second
	PropDelay time.Duration // one-way propagation
	MTU       int           // max packet bytes; larger packets are dropped
	QueueLen  int           // queue capacity in bytes; 0 means unbounded
	BER       float64       // per-bit corruption probability
	DropRate  float64       // per-packet silent drop probability
	DupRate   float64       // per-packet duplication probability
	Jitter    time.Duration // uniform [0,Jitter) extra propagation delay

	// Coalesce widens the batched-delivery drain window (interrupt
	// coalescing): arrivals within this much of the queue head are
	// delivered in the same drain callback, at most Coalesce later than
	// their exact arrival instant. Zero delivers every packet at its
	// exact arrival time. Ignored in per-packet delivery mode.
	Coalesce time.Duration
}

// LinkStats counts traffic through a link.
type LinkStats struct {
	TxPackets   uint64
	TxBytes     uint64
	DropsQueue  uint64 // tail-drop due to full queue (congestion)
	DropsMTU    uint64 // packet exceeded link MTU
	DropsRandom uint64 // DropRate losses
	DropsDown   uint64 // offered while the link was administratively down
	DropsBurst  uint64 // Gilbert–Elliott impairment losses
	Corrupted   uint64 // BER or impairment bit-flips (delivered corrupted)
	Duplicated  uint64
	Reordered   uint64 // packets delayed past their slot by the impairment
}

// Link is a simplex transmission channel between two switching nodes. Links
// are directional; CreateDuplexLink builds the usual pair.
type Link struct {
	net       *Network
	cfg       LinkConfig
	id        uint32 // creation-ordered, deterministic; trace record ID
	busyUntil time.Duration
	stats     LinkStats
	crossStop sim.Timer

	// Batched-delivery state (see linkqueue.go): the arrival queue and its
	// single drain timer.
	qHead      *flight
	qTail      *flight
	drainTimer sim.Timer

	// Fault-injection state (see faults.go).
	down  bool
	imp   *Impairment
	geBad bool // Gilbert–Elliott chain is in the bad (bursty) state
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// tracer returns the kernel's flight recorder (nil when tracing is off or
// the link is detached, e.g. a bare Link driven directly in tests).
func (l *Link) tracer() *trace.Recorder {
	if l.net == nil {
		return nil
	}
	return l.net.kernel.Tracer()
}

// traceNow returns the kernel's virtual time for trace records, zero for a
// detached link.
func (l *Link) traceNow() time.Duration {
	if l.net == nil {
		return 0
	}
	return l.net.kernel.Now()
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetDropRate changes the random-loss probability mid-run (loss sweeps).
func (l *Link) SetDropRate(p float64) { l.cfg.DropRate = p }

// QueuedBytes estimates the bytes currently awaiting serialization.
func (l *Link) QueuedBytes() int {
	backlog := l.busyUntil - l.net.kernel.Now()
	if backlog <= 0 {
		return 0
	}
	return int(backlog.Seconds() * l.cfg.Bandwidth / 8)
}

// serialize models queueing + transmission of one packet. It returns the
// time the last bit leaves the link and whether the packet survived the
// queue/MTU checks.
func (l *Link) serialize(size int) (departure time.Duration, ok bool) {
	now := l.net.kernel.Now()
	if l.cfg.MTU > 0 && size > l.cfg.MTU {
		l.stats.DropsMTU++
		l.tracer().Emit(now, trace.KLinkDrop, l.id, trace.DropMTU, uint64(size), 0)
		return 0, false
	}
	if l.cfg.QueueLen > 0 && l.QueuedBytes()+size > l.cfg.QueueLen {
		l.stats.DropsQueue++
		l.tracer().Emit(now, trace.KLinkDrop, l.id, trace.DropQueue, uint64(size), 0)
		return 0, false
	}
	start := l.busyUntil
	if start < now {
		start = now
	}
	txTime := time.Duration(float64(size*8) / l.cfg.Bandwidth * float64(time.Second))
	l.busyUntil = start + txTime
	l.stats.TxPackets++
	l.stats.TxBytes += uint64(size)
	return l.busyUntil, true
}

// transit pushes a flight's packet through the link, scheduling the flight's
// next step at the (possibly corrupted, jittered) arrival time. Dropped
// packets end the flight here.
//
// Random draws happen in a fixed order, and the impairment draws occur only
// while an Impairment is attached, so runs without fault injection consume
// the seeded stream exactly as before (seed determinism across versions).
func (l *Link) transit(fl *flight) {
	tr := l.tracer()
	if l.down {
		l.stats.DropsDown++
		tr.Emit(l.net.kernel.Now(), trace.KLinkDrop, l.id, trace.DropDown, uint64(len(fl.pkt)), 0)
		fl.free()
		return
	}
	pkt := fl.pkt
	rng := l.net.kernel.Rand()
	if l.imp != nil && l.geDrop(rng) {
		l.stats.DropsBurst++
		tr.Emit(l.net.kernel.Now(), trace.KLinkDrop, l.id, trace.DropBurst, uint64(len(pkt)), 0)
		fl.free()
		return
	}
	if l.cfg.DropRate > 0 && rng.Float64() < l.cfg.DropRate {
		l.stats.DropsRandom++
		tr.Emit(l.net.kernel.Now(), trace.KLinkDrop, l.id, trace.DropRandom, uint64(len(pkt)), 0)
		fl.free()
		return
	}
	departure, ok := l.serialize(len(pkt))
	if !ok {
		fl.free()
		return
	}
	if tr != nil {
		tr.EmitKeyed(l.stats.TxPackets, l.net.kernel.Now(), trace.KLinkTx, l.id,
			uint64(len(pkt)), l.stats.TxPackets, 0)
	}
	if l.cfg.BER > 0 {
		bits := float64(len(pkt) * 8)
		pCorrupt := 1 - pow1m(l.cfg.BER, bits)
		if rng.Float64() < pCorrupt {
			l.stats.Corrupted++
			idx := rng.Intn(len(pkt) * 8)
			pkt[idx/8] ^= 1 << (idx % 8)
			tr.Emit(l.net.kernel.Now(), trace.KLinkCorrupt, l.id, uint64(len(pkt)), uint64(idx), 0)
		}
	}
	if l.imp != nil && l.imp.CorruptRate > 0 && rng.Float64() < l.imp.CorruptRate {
		l.stats.Corrupted++
		idx := rng.Intn(len(pkt) * 8)
		pkt[idx/8] ^= 1 << (idx % 8)
		tr.Emit(l.net.kernel.Now(), trace.KLinkCorrupt, l.id, uint64(len(pkt)), uint64(idx), 0)
	}
	arrive := departure + l.cfg.PropDelay
	if l.cfg.Jitter > 0 {
		arrive += time.Duration(rng.Int63n(int64(l.cfg.Jitter)))
	}
	if l.imp != nil && l.imp.ReorderRate > 0 && rng.Float64() < l.imp.ReorderRate {
		l.stats.Reordered++
		arrive += l.imp.ReorderDelay
	}
	l.scheduleArrival(fl, arrive)
	dupP := l.cfg.DupRate
	if l.imp != nil {
		dupP += l.imp.DupRate * (1 - dupP)
	}
	if dupP > 0 && rng.Float64() < dupP {
		l.stats.Duplicated++
		tr.Emit(l.net.kernel.Now(), trace.KLinkDup, l.id, uint64(len(pkt)), 0, 0)
		dup := newFlight(fl.net, fl.from, fl.to, fl.net.slabs().GetSlab(len(pkt)), fl.srcAddr, fl.dstAddr)
		copy(dup.pkt, pkt)
		dup.path = fl.path
		dup.i = fl.i
		l.scheduleArrival(dup, arrive+time.Microsecond)
	}
}

// pow1m computes (1-p)^n for tiny p without math.Pow blowups; for p*n << 1
// it is ≈ 1-p*n.
func pow1m(p, n float64) float64 {
	x := p * n
	if x < 1e-4 {
		return 1 - x + x*x/2
	}
	r := 1.0
	base := 1 - p
	for i := 0; i < int(n); i++ {
		r *= base
		if r == 0 {
			break
		}
	}
	return r
}

// StartCrossTraffic injects competing load onto the link: packets of pktSize
// bytes at rate bits/sec occupy queue and serialization capacity but are
// never delivered anywhere. Calling it again replaces the previous load;
// rate 0 stops it.
func (l *Link) StartCrossTraffic(rate float64, pktSize int) {
	l.crossStop.Stop()
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(pktSize*8) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	var tick func()
	tick = func() {
		l.serialize(pktSize)
		l.crossStop = l.net.kernel.Schedule(interval, tick)
	}
	l.crossStop = l.net.kernel.Schedule(interval, tick)
}
