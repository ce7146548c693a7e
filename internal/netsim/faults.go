package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"adaptive/internal/netapi"
	"adaptive/internal/trace"
)

// Fault injection (run-time adaptation inputs).
//
// The paper's reason for run-time reconfiguration is that network conditions
// change while a session is live: routes fail over to long-delay links, loss
// turns bursty, hosts become unreachable (§3C, §5). This file provides the
// deterministic machinery that provokes those conditions inside netsim:
//
//   - Link outages (SetDown) and host-group partitions (Partition/Heal),
//   - per-link Impairment profiles: Gilbert–Elliott two-state burst loss,
//     reordering, duplication, and bit corruption (which exercises the wire
//     checksum path end to end),
//   - a FaultPlan: a declarative, kernel-scheduled timeline of fault events,
//     so the same plan under the same seed reproduces byte-identical runs.

// Impairment is a per-link impairment profile, applied to every packet the
// link carries while attached. All probabilities are per-packet in [0,1].
type Impairment struct {
	// Gilbert–Elliott two-state burst-loss model: the link alternates
	// between a good and a bad state with the given per-packet transition
	// probabilities, dropping packets with LossGood / LossBad respectively.
	// Mean burst length in packets is 1/PBadToGood.
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64

	// ReorderRate delays the selected packet by ReorderDelay beyond its
	// normal arrival, letting later packets overtake it.
	ReorderRate  float64
	ReorderDelay time.Duration

	// DupRate duplicates the packet (combined with LinkConfig.DupRate).
	DupRate float64

	// CorruptRate flips one random bit in the selected packet, exercising
	// the receiver's checksum verification.
	CorruptRate float64
}

// Validate rejects malformed profiles.
func (imp *Impairment) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodToBad", imp.PGoodToBad}, {"PBadToGood", imp.PBadToGood},
		{"LossGood", imp.LossGood}, {"LossBad", imp.LossBad},
		{"ReorderRate", imp.ReorderRate}, {"DupRate", imp.DupRate},
		{"CorruptRate", imp.CorruptRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netsim: impairment %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if imp.ReorderRate > 0 && imp.ReorderDelay <= 0 {
		return fmt.Errorf("netsim: impairment ReorderRate needs positive ReorderDelay")
	}
	return nil
}

// ExpectedLossRate returns the stationary loss fraction of the Gilbert–
// Elliott component (the long-run average a loss-rate metric converges to).
func (imp *Impairment) ExpectedLossRate() float64 {
	pgb, pbg := imp.PGoodToBad, imp.PBadToGood
	if pgb <= 0 {
		return imp.LossGood
	}
	if pbg <= 0 {
		return imp.LossBad
	}
	piBad := pgb / (pgb + pbg)
	return (1-piBad)*imp.LossGood + piBad*imp.LossBad
}

// SetDown takes the link down (true) or back up (false). A down link drops
// every packet offered to it; packets already past the link are unaffected.
func (l *Link) SetDown(down bool) {
	l.down = down
	code := uint64(trace.FaultLinkUp)
	if down {
		code = trace.FaultLinkDown
	}
	l.tracer().Emit(l.traceNow(), trace.KFault, l.id, code, 0, 0)
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// SetImpairment attaches a copy of the profile to the link (nil detaches).
// The Gilbert–Elliott state restarts in the good state on every attach.
func (l *Link) SetImpairment(imp *Impairment) error {
	if imp == nil {
		l.imp = nil
		l.geBad = false
		l.tracer().Emit(l.traceNow(), trace.KFault, l.id, trace.FaultClearImpair, 0, 0)
		return nil
	}
	if err := imp.Validate(); err != nil {
		return err
	}
	cp := *imp
	l.imp = &cp
	l.geBad = false
	l.tracer().Emit(l.traceNow(), trace.KFault, l.id, trace.FaultImpair,
		uint64(imp.ExpectedLossRate()*1e6), 0)
	return nil
}

// CurrentImpairment returns a copy of the attached profile, if any.
func (l *Link) CurrentImpairment() (Impairment, bool) {
	if l.imp == nil {
		return Impairment{}, false
	}
	return *l.imp, true
}

// geDrop advances the Gilbert–Elliott chain one packet and reports whether
// that packet is lost. Called once per packet while an impairment is
// attached, always in the same order, so runs are seed-deterministic.
func (l *Link) geDrop(rng *rand.Rand) bool {
	imp := l.imp
	p := imp.LossGood
	if l.geBad {
		p = imp.LossBad
	}
	lost := p > 0 && rng.Float64() < p
	if l.geBad {
		if imp.PBadToGood > 0 && rng.Float64() < imp.PBadToGood {
			l.geBad = false
		}
	} else if imp.PGoodToBad > 0 && rng.Float64() < imp.PGoodToBad {
		l.geBad = true
	}
	return lost
}

// --- partitions ---

// FaultStats counts network-level fault activity.
type FaultStats struct {
	PartitionDrops uint64 // packets dropped on severed host pairs
	Partitions     uint64 // Partition calls
	Heals          uint64 // Heal calls
}

// FaultStats returns a copy of the network fault counters.
func (n *Network) FaultStats() FaultStats { return n.faultStats }

// Partition severs connectivity between every host in a and every host in b,
// in both directions. Partitions accumulate; Heal removes them all. Packets
// already serialized onto a link finish their current hop (the same
// semantics as a route change) — only new injections and unresolved flights
// are dropped.
func (n *Network) Partition(a, b []netapi.HostID) {
	if n.blocked == nil {
		n.blocked = make(map[[2]netapi.HostID]bool)
	}
	n.faultStats.Partitions++
	for _, x := range a {
		for _, y := range b {
			n.blocked[[2]netapi.HostID{x, y}] = true
			n.blocked[[2]netapi.HostID{y, x}] = true
		}
	}
	n.kernel.Tracer().Emit(n.kernel.Now(), trace.KFault, 0, trace.FaultPartition,
		uint64(len(a)*len(b)), 0)
}

// Heal removes every partition.
func (n *Network) Heal() {
	if len(n.blocked) > 0 {
		n.faultStats.Heals++
		n.kernel.Tracer().Emit(n.kernel.Now(), trace.KFault, 0, trace.FaultHeal, 0, 0)
	}
	n.blocked = nil
}

// Partitioned reports whether the pair (x, y) is currently severed.
func (n *Network) Partitioned(x, y netapi.HostID) bool {
	return n.blocked[[2]netapi.HostID{x, y}]
}

// partitionDrop records one packet lost to a partition.
func (n *Network) partitionDrop() { n.faultStats.PartitionDrops++ }

// --- fault plans ---

// FaultPlan is a declarative timeline of fault events executed on the
// simulation kernel. Building a plan does nothing until Install; an
// installed plan's events fire at their virtual times in (time, insertion)
// order, so the same plan and seed reproduce the same run exactly.
type FaultPlan struct {
	net       *Network
	events    []faultEvent
	installed bool
	err       error
}

type faultEvent struct {
	at   time.Duration
	idx  int // insertion order, the tie-breaker under stable sort
	what string
	fn   func()
}

// NewFaultPlan starts an empty plan against the network.
func (n *Network) NewFaultPlan() *FaultPlan { return &FaultPlan{net: n} }

func (p *FaultPlan) add(at time.Duration, what string, fn func()) *FaultPlan {
	p.events = append(p.events, faultEvent{at: at, idx: len(p.events), what: what, fn: fn})
	return p
}

// LinkDown schedules the link to go down at the virtual time.
func (p *FaultPlan) LinkDown(at time.Duration, l *Link) *FaultPlan {
	return p.add(at, fmt.Sprintf("link-down(%s)", l.cfg.Name), func() { l.SetDown(true) })
}

// LinkUp schedules the link to come back up.
func (p *FaultPlan) LinkUp(at time.Duration, l *Link) *FaultPlan {
	return p.add(at, fmt.Sprintf("link-up(%s)", l.cfg.Name), func() { l.SetDown(false) })
}

// Impair schedules an impairment profile to attach to the link. Invalid
// profiles surface from Install.
func (p *FaultPlan) Impair(at time.Duration, l *Link, imp Impairment) *FaultPlan {
	if err := imp.Validate(); err != nil && p.err == nil {
		p.err = err
	}
	return p.add(at, fmt.Sprintf("impair(%s, loss~%.3f)", l.cfg.Name, imp.ExpectedLossRate()),
		func() { _ = l.SetImpairment(&imp) })
}

// ClearImpair schedules the link's impairment to detach.
func (p *FaultPlan) ClearImpair(at time.Duration, l *Link) *FaultPlan {
	return p.add(at, fmt.Sprintf("clear-impair(%s)", l.cfg.Name), func() { _ = l.SetImpairment(nil) })
}

// Partition schedules a host-group partition.
func (p *FaultPlan) Partition(at time.Duration, a, b []netapi.HostID) *FaultPlan {
	ac, bc := append([]netapi.HostID(nil), a...), append([]netapi.HostID(nil), b...)
	return p.add(at, fmt.Sprintf("partition(%v | %v)", ac, bc), func() { p.net.Partition(ac, bc) })
}

// Heal schedules all partitions to lift.
func (p *FaultPlan) Heal(at time.Duration) *FaultPlan {
	return p.add(at, "heal", func() { p.net.Heal() })
}

// Len returns the number of planned events.
func (p *FaultPlan) Len() int { return len(p.events) }

// String renders the plan timeline, in firing order.
func (p *FaultPlan) String() string {
	evs := p.sorted()
	var b strings.Builder
	for i, ev := range evs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "t=%v %s", ev.at, ev.what)
	}
	return b.String()
}

func (p *FaultPlan) sorted() []faultEvent {
	evs := append([]faultEvent(nil), p.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].idx < evs[j].idx
	})
	return evs
}

// Install validates the plan and schedules every event on the network's
// kernel. A plan installs at most once.
func (p *FaultPlan) Install() error {
	if p.err != nil {
		return p.err
	}
	if p.installed {
		return fmt.Errorf("netsim: fault plan already installed")
	}
	p.installed = true
	for _, ev := range p.sorted() {
		ev := ev
		p.net.kernel.ScheduleAt(ev.at, ev.fn)
	}
	return nil
}
