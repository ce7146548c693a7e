// Package arbiter is the per-host bandwidth arbiter: a congestion manager
// that aggregates congestion signals from every session on a node —
// retransmission-derived loss, RTT inflation over the session's own minimum,
// and ECN-like hints from the environment (netsim fault plans, udpnet
// loop-shed counters) — into one shared bottleneck estimate, and divides
// the estimated capacity into per-session send budgets.
//
// The design follows the congestion-manager line of work (one shared
// estimator per host instead of N independent ones fighting each other) bent
// to the paper's Table 1: the allocation policy is expressed over the four
// ADAPTIVE Transport Service Classes, with guaranteed floors for the
// isochronous classes and weighted proportional shares above the floors.
// Unused budget is redistributed work-conservingly, so a silent video
// session's share flows to bulk transfer instead of evaporating.
//
// The package sits at the bottom of the import graph (standard library
// only): MANTTS feeds it signals from the policy sampler and applies its
// grants to session pacers; the arbiter itself knows nothing about sessions,
// specs, or networks. All methods except the counter accessors must run on
// the provider event loop (the same single-threaded discipline every other
// per-node structure follows); the exported counters are atomics so the
// observability plane can scrape them from any goroutine.
package arbiter

import (
	"sync/atomic"
	"time"
)

// Class mirrors the four Table-1 Transport Service Classes. The arbiter
// deliberately re-declares them (values match mantts.TSC) so mantts can
// import this package without a cycle.
type Class uint8

const (
	// ClassInteractiveIso is conversational continuous media (voice).
	ClassInteractiveIso Class = iota
	// ClassDistributionalIso is one-to-many continuous media (video).
	ClassDistributionalIso
	// ClassRealTime is delay-sensitive control traffic.
	ClassRealTime
	// ClassNonRealTime is traditional data (file transfer, OLTP).
	ClassNonRealTime

	// NumClasses is the size of per-class policy arrays.
	NumClasses = 4
)

// The allocation policy and estimator constants. They are fixed: MANTTS
// derives every per-session input (class, weight, demand, seed capacity), so
// nothing above the arbiter has a reason to vary them.
var (
	// classWeight is the per-class proportional share above the floors,
	// following class urgency. A class with twice the weight gets twice the
	// surplus bandwidth when both are backlogged.
	classWeight = [NumClasses]float64{4, 3, 2, 1}
	// classFloor reserves this fraction of estimated capacity for a class
	// before any weighted sharing (never more than the class actually
	// demands). The isochronous classes carry floors so a bulk backlog cannot
	// starve a voice stream below its codec rate.
	classFloor = [NumClasses]float64{0.25, 0.20, 0, 0}
)

const (
	// MinBps is the per-session grant floor: even a fully squeezed session
	// keeps enough budget for keepalives and signaling.
	MinBps float64 = 32e3
	// headroom is the fraction of estimated capacity handed out as grants;
	// the remainder absorbs estimation error before the queue does.
	headroom float64 = 0.95

	// beta is the multiplicative-decrease factor applied to the capacity
	// estimate on a congestion event.
	beta float64 = 0.85
	// probeGain is the fractional additive-increase step: while sessions are
	// squeezed (aggregate demand above the estimate) and the host sees clean
	// samples, the estimate grows by this fraction per reallocation
	// interval, probing for released capacity.
	probeGain float64 = 0.05
	// holdoff is the minimum spacing between multiplicative decreases, so
	// one congestion episode (many sessions reporting the same queue drop)
	// costs one decrease, not one per session.
	holdoff = 100 * time.Millisecond

	// lossThresh is the per-sample loss fraction above which a session's
	// signal counts as congestion.
	lossThresh float64 = 0.02
	// rttInflation is the ratio of a sample RTT to the session's minimum
	// observed RTT above which the signal counts as congestion (queue growth
	// at the bottleneck).
	rttInflation float64 = 2.0

	// reallocEvery rate-limits grant recomputation: Reallocate calls inside
	// the interval are coalesced (the periodic MANTTS samplers of N sessions
	// would otherwise recompute N times per period).
	reallocEvery = 25 * time.Millisecond
)

// Policy has no fields: the policy is the package constants above. It and
// DefaultPolicy remain only because the repo benchmark constructs arbiters
// as New(DefaultPolicy()).
type Policy struct{}

// DefaultPolicy returns the (only) policy.
func DefaultPolicy() Policy { return Policy{} }

// Signal is one session's periodic congestion report (produced by the
// MANTTS sampler from whitebox session metrics).
type Signal struct {
	// LossRate is the loss fraction over the sample window (retransmission
	// rate for acked sessions, receiver-report loss otherwise).
	LossRate float64
	// RTT is the smoothed round-trip estimate; zero means unknown.
	RTT time.Duration
	// ThroughputBps is not read: the estimator works from loss and delay
	// alone. The field remains only because the repo benchmark sets it.
	ThroughputBps float64
}

// Grant is a budget callback: the arbiter calls it with the session's new
// send budget in bits per second. Callbacks run on the event loop from
// inside Reallocate; they must not call back into the arbiter.
type Grant func(budgetBps float64)

// entry is one registered session. Entries live in a slice in registration
// order so reallocation iterates without map-order nondeterminism.
type entry struct {
	id      uint32
	class   Class
	weight  float64
	demand  float64       // declared appetite, bps
	granted float64       // last delivered budget
	alloc   float64       // scratch: allocation being computed
	minRTT  time.Duration // per-session RTT floor (inflation baseline)
	grantFn Grant
}

// Arbiter is the per-host congestion manager. Zero value is unusable; use
// New.
type Arbiter struct {
	capBps float64 // shared bottleneck estimate
	capMax float64 // growth ceiling (0 = demand-bounded only)
	seeded bool

	entries []entry
	index   map[uint32]int

	lastDecrease time.Duration
	lastRealloc  time.Duration
	ranOnce      bool
	dirty        bool
	clean        bool // a congestion-free sample arrived since the last probe

	// Scrape-safe counters (adaptive_arbiter_* gauges).
	grants    atomic.Uint64 // budget deliveries
	decreases atomic.Uint64 // multiplicative decreases
	increases atomic.Uint64 // probe increases
	reallocs  atomic.Uint64 // full grant recomputations
	hints     atomic.Uint64 // ECN-like environment hints accepted
	capacity  atomic.Uint64 // current estimate, bps
	sessions  atomic.Uint64 // registered sessions
	squeeze   atomic.Uint64 // host squeeze, parts per million
}

// New returns an arbiter.
func New(Policy) *Arbiter {
	return &Arbiter{index: make(map[uint32]int)}
}

// SeedCapacity installs a-priori bottleneck knowledge (the MANTTS network
// state descriptor's path bandwidth): the estimate starts there and probing
// is ceilinged at twice the seed. Repeat seeds keep the maximum.
func (a *Arbiter) SeedCapacity(bps float64) {
	if bps <= 0 {
		return
	}
	if !a.seeded || bps > a.capMax/2 {
		a.capMax = 2 * bps
	}
	if !a.seeded || bps > a.capBps {
		a.capBps = bps
	}
	a.seeded = true
	a.capacity.Store(uint64(a.capBps))
	a.dirty = true
}

// Register adds a session. weight is the intra-class share (priority+1 in
// MANTTS terms); demandBps the session's declared appetite. The grant
// callback receives every budget change. Unseeded arbiters start their
// estimate at the registered demand sum (optimistic start, AIMD corrects
// downward).
func (a *Arbiter) Register(id uint32, class Class, weight, demandBps float64, grant Grant) {
	if _, ok := a.index[id]; ok {
		return
	}
	if class >= NumClasses {
		class = ClassNonRealTime
	}
	if weight <= 0 {
		weight = 1
	}
	if demandBps < MinBps {
		demandBps = MinBps
	}
	a.index[id] = len(a.entries)
	a.entries = append(a.entries, entry{
		id: id, class: class, weight: weight, demand: demandBps, grantFn: grant,
	})
	if !a.seeded {
		if sum := a.totalDemand(); sum > a.capBps {
			a.capBps = sum
			a.capacity.Store(uint64(a.capBps))
		}
	}
	a.sessions.Store(uint64(len(a.entries)))
	a.dirty = true
}

// Unregister removes a session; its budget returns to the pool at the next
// reallocation.
func (a *Arbiter) Unregister(id uint32) {
	i, ok := a.index[id]
	if !ok {
		return
	}
	copy(a.entries[i:], a.entries[i+1:])
	a.entries = a.entries[:len(a.entries)-1]
	delete(a.index, id)
	for j := i; j < len(a.entries); j++ {
		a.index[a.entries[j].id] = j
	}
	a.sessions.Store(uint64(len(a.entries)))
	a.dirty = true
}

// SetDemand updates a session's declared appetite (a codec stepping its
// ladder, a bulk transfer finishing).
func (a *Arbiter) SetDemand(id uint32, demandBps float64) {
	i, ok := a.index[id]
	if !ok {
		return
	}
	if demandBps < MinBps {
		demandBps = MinBps
	}
	if a.entries[i].demand != demandBps {
		a.entries[i].demand = demandBps
		a.dirty = true
	}
}

// Observe folds one session's congestion report into the shared estimate.
// Allocation-free: call it from every sampler tick.
func (a *Arbiter) Observe(now time.Duration, id uint32, sig Signal) {
	i, ok := a.index[id]
	if !ok {
		return
	}
	e := &a.entries[i]
	if sig.RTT > 0 && (e.minRTT == 0 || sig.RTT < e.minRTT) {
		e.minRTT = sig.RTT
	}
	congested := sig.LossRate > lossThresh
	if !congested && sig.RTT > 0 && e.minRTT > 0 {
		congested = float64(sig.RTT) > float64(e.minRTT)*rttInflation
	}
	if congested {
		a.congestion(now)
	} else {
		a.clean = true
	}
}

// Hint is the host-level ECN-like signal: the environment (a netsim fault
// plan tripping queue drops, the udpnet provider shedding loop posts)
// reports congestion not attributable to one session.
func (a *Arbiter) Hint(now time.Duration) {
	a.hints.Add(1)
	a.congestion(now)
}

// congestion applies one multiplicative decrease, holdoff-limited so a
// single congestion episode reported by many sessions costs one step.
func (a *Arbiter) congestion(now time.Duration) {
	if a.lastDecrease != 0 && now-a.lastDecrease < holdoff {
		return
	}
	a.lastDecrease = now
	a.clean = false
	floor := MinBps * float64(len(a.entries)+1)
	a.capBps *= beta
	if a.capBps < floor {
		a.capBps = floor
	}
	a.capacity.Store(uint64(a.capBps))
	a.decreases.Add(1)
	a.dirty = true
}

// Reallocate recomputes and delivers grants. Rate-limited to reallocEvery
// (callers invoke it from every sampler tick; coalesced calls are free).
// Allocation-free on every path.
func (a *Arbiter) Reallocate(now time.Duration) {
	if a.ranOnce && !a.dirty && now-a.lastRealloc < reallocEvery {
		return
	}
	a.lastRealloc = now
	a.ranOnce = true
	a.dirty = false
	if len(a.entries) == 0 {
		return
	}
	a.reallocs.Add(1)

	// Probe: while squeezed and with fresh evidence of clean traffic, grow
	// the estimate toward released capacity. Demand-bounded growth (and the
	// seed ceiling) keeps an idle host's estimate from ballooning.
	total := a.totalDemand()
	if total > a.capBps && a.clean && (a.lastDecrease == 0 || now-a.lastDecrease > holdoff) {
		grown := a.capBps * (1 + probeGain)
		if a.capMax > 0 && grown > a.capMax {
			grown = a.capMax
		}
		if grown > total {
			grown = total
		}
		if grown > a.capBps {
			a.capBps = grown
			a.capacity.Store(uint64(a.capBps))
			a.increases.Add(1)
		}
		a.clean = false // next probe step needs fresh clean evidence
	}

	avail := a.capBps * headroom
	a.squeeze.Store(squeezePPM(total, avail))

	// Stage 1 — class budgets: demand-capped floors first, then the
	// remaining pool water-filled over backlogged classes by class weight.
	var classDemand, budget [NumClasses]float64
	for i := range a.entries {
		classDemand[a.entries[i].class] += a.entries[i].demand
	}
	pool := avail
	for c := 0; c < NumClasses; c++ {
		f := classFloor[c] * avail
		if f > classDemand[c] {
			f = classDemand[c]
		}
		budget[c] = f
		pool -= f
	}
	for pass := 0; pass < NumClasses && pool > 1; pass++ {
		var wsum float64
		for c := 0; c < NumClasses; c++ {
			if budget[c] < classDemand[c] {
				wsum += classWeight[c]
			}
		}
		if wsum == 0 {
			break
		}
		var spill float64
		for c := 0; c < NumClasses; c++ {
			if budget[c] >= classDemand[c] {
				continue
			}
			add := pool * classWeight[c] / wsum
			if budget[c]+add > classDemand[c] {
				spill += budget[c] + add - classDemand[c]
				budget[c] = classDemand[c]
			} else {
				budget[c] += add
			}
		}
		pool = spill
	}

	// Stage 2 — intra-class: each class budget water-filled over its
	// sessions by session weight, demand-capped.
	for c := 0; c < NumClasses; c++ {
		a.fillClass(Class(c), budget[c])
	}

	// Stage 3 — deliver. Grants only fire on meaningful change (>1% or the
	// first allocation), so steady state is callback-free.
	for i := range a.entries {
		e := &a.entries[i]
		g := e.alloc
		if g < MinBps {
			g = MinBps
		}
		if e.granted != 0 && !changed(g, e.granted) {
			continue
		}
		e.granted = g
		a.grants.Add(1)
		if e.grantFn != nil {
			e.grantFn(g)
		}
	}
}

// fillClass distributes budget over the class's sessions by weight with
// demand caps, spilling surplus back across passes (bounded water-fill).
func (a *Arbiter) fillClass(c Class, budget float64) {
	for i := range a.entries {
		if a.entries[i].class == c {
			a.entries[i].alloc = 0
		}
	}
	pool := budget
	for pass := 0; pass < 4 && pool > 1; pass++ {
		var wsum float64
		for i := range a.entries {
			e := &a.entries[i]
			if e.class == c && e.alloc < e.demand {
				wsum += e.weight
			}
		}
		if wsum == 0 {
			break
		}
		var spill float64
		for i := range a.entries {
			e := &a.entries[i]
			if e.class != c || e.alloc >= e.demand {
				continue
			}
			add := pool * e.weight / wsum
			if e.alloc+add > e.demand {
				spill += e.alloc + add - e.demand
				e.alloc = e.demand
			} else {
				e.alloc += add
			}
		}
		pool = spill
	}
}

// changed reports a >1% relative budget move.
func changed(next, prev float64) bool {
	d := next - prev
	if d < 0 {
		d = -d
	}
	return d > 0.01*prev
}

func squeezePPM(demand, avail float64) uint64 {
	if demand <= avail || demand <= 0 {
		return 0
	}
	return uint64((demand - avail) / demand * 1e6)
}

func (a *Arbiter) totalDemand() float64 {
	var sum float64
	for i := range a.entries {
		sum += a.entries[i].demand
	}
	return sum
}

// CapacityBps returns the current shared bottleneck estimate.
func (a *Arbiter) CapacityBps() float64 { return a.capBps }

// Sessions returns the registered-session count.
func (a *Arbiter) Sessions() int { return len(a.entries) }

// SqueezeOf returns how squeezed a session is: 1 - granted/demand, in
// [0,1]. This is the MetricArbiterSqueeze value TSA rules condition on.
func (a *Arbiter) SqueezeOf(id uint32) float64 {
	i, ok := a.index[id]
	if !ok {
		return 0
	}
	e := &a.entries[i]
	if e.demand <= 0 || e.granted <= 0 || e.granted >= e.demand {
		return 0
	}
	return 1 - e.granted/e.demand
}

// Grants returns the cumulative budget-delivery count.
func (a *Arbiter) Grants() uint64 { return a.grants.Load() }

// Decreases returns the cumulative multiplicative-decrease count.
func (a *Arbiter) Decreases() uint64 { return a.decreases.Load() }

// Hints returns the accepted environment-hint count.
func (a *Arbiter) Hints() uint64 { return a.hints.Load() }

// MetricCounters exports the arbiter's state for the observability plane
// (rendered as adaptive_arbiter_* on /metrics). All closures are
// scrape-safe from any goroutine.
func (a *Arbiter) MetricCounters() map[string]func() uint64 {
	return map[string]func() uint64{
		"arbiter.capacity_bps": a.capacity.Load,
		"arbiter.sessions":     a.sessions.Load,
		"arbiter.grants":       a.grants.Load,
		"arbiter.decreases":    a.decreases.Load,
		"arbiter.increases":    a.increases.Load,
		"arbiter.reallocs":     a.reallocs.Load,
		"arbiter.hints":        a.hints.Load,
		"arbiter.squeeze_ppm":  a.squeeze.Load,
	}
}
