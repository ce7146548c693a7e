package arbiter

import (
	"testing"
	"time"
)

func bump(t time.Duration) time.Duration { return t + 30*time.Millisecond }

// run advances virtual time one reallocation interval and recomputes.
func run(a *Arbiter, now *time.Duration) {
	*now = bump(*now)
	a.Reallocate(*now)
}

func TestFloorsProtectIsochronousUnderBulkBacklog(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	grants := map[uint32]float64{}
	mk := func(id uint32, c Class, demand float64) {
		a.Register(id, c, 1, demand, func(bps float64) { grants[id] = bps })
	}
	mk(1, ClassInteractiveIso, 2e6) // voice: wants 2 Mbps
	mk(2, ClassNonRealTime, 100e6)  // bulk: wants everything

	var now time.Duration
	run(a, &now)

	// Voice's floor is 25% of avail (9.5e6*0.25 = 2.375e6) but demand-capped
	// at 2e6, so it must get its full demand despite bulk's infinite appetite.
	if g := grants[1]; g < 2e6*0.99 {
		t.Fatalf("isochronous grant %v, want full 2e6 demand", g)
	}
	// Bulk gets the rest (work-conserving): ~7.5e6.
	if g := grants[2]; g < 7e6 {
		t.Fatalf("bulk grant %v, want ~7.5e6 (work-conserving remainder)", g)
	}
	sum := grants[1] + grants[2]
	if sum > 10e6*0.96 {
		t.Fatalf("grants sum %v exceeds headroomed capacity", sum)
	}
}

func TestWorkConservingRedistribution(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	grants := map[uint32]float64{}
	a.Register(1, ClassInteractiveIso, 1, 100e3, func(bps float64) { grants[1] = bps })
	a.Register(2, ClassNonRealTime, 1, 50e6, func(bps float64) { grants[2] = bps })

	var now time.Duration
	run(a, &now)

	// The isochronous class demands only 100 kbps; its unused floor must
	// flow to bulk, not evaporate.
	if g := grants[2]; g < 9e6 {
		t.Fatalf("bulk grant %v, want ~9.4e6 (idle floors redistributed)", g)
	}
}

func TestIntraClassWeightedShares(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(9e6)
	grants := map[uint32]float64{}
	// Two bulk sessions, weight 3 vs 1, both insatiable.
	a.Register(1, ClassNonRealTime, 3, 100e6, func(bps float64) { grants[1] = bps })
	a.Register(2, ClassNonRealTime, 1, 100e6, func(bps float64) { grants[2] = bps })

	var now time.Duration
	run(a, &now)

	ratio := grants[1] / grants[2]
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("weight-3 : weight-1 grant ratio = %.2f, want ~3", ratio)
	}
}

func TestAIMDDecreaseAndProbeRecovery(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	a.Register(1, ClassNonRealTime, 1, 50e6, func(float64) {})

	var now time.Duration
	run(a, &now)
	before := a.CapacityBps()

	// A lossy sample triggers one multiplicative decrease...
	a.Observe(now, 1, Signal{LossRate: 0.10})
	if got := a.CapacityBps(); got >= before {
		t.Fatalf("capacity %v did not decrease from %v on loss", got, before)
	}
	if a.Decreases() != 1 {
		t.Fatalf("decreases = %d, want 1", a.Decreases())
	}
	// ...and a burst of further congested samples inside the holdoff window
	// is coalesced into that same decrease.
	after := a.CapacityBps()
	for i := 0; i < 5; i++ {
		a.Observe(now+time.Duration(i)*time.Millisecond, 1, Signal{LossRate: 0.10})
	}
	if got := a.CapacityBps(); got != after {
		t.Fatalf("holdoff violated: capacity %v after burst, want %v", got, after)
	}

	// Clean squeezed samples probe the estimate back up, ceilinged at
	// 2x the seed.
	for i := 0; i < 200; i++ {
		now += reallocEvery + time.Millisecond
		a.Observe(now, 1, Signal{ThroughputBps: 1e6})
		a.Reallocate(now)
	}
	if got := a.CapacityBps(); got < 10e6*0.99 {
		t.Fatalf("capacity %v did not probe back to the seed", got)
	}
	if got := a.CapacityBps(); got > 20e6 {
		t.Fatalf("capacity %v exceeded 2x seed ceiling", got)
	}
}

func TestRTTInflationCountsAsCongestion(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	a.Register(1, ClassNonRealTime, 1, 50e6, func(float64) {})

	var now time.Duration
	// Establish the RTT floor.
	a.Observe(now, 1, Signal{RTT: 10 * time.Millisecond})
	if a.Decreases() != 0 {
		t.Fatal("clean RTT sample must not decrease")
	}
	// 3x the floor: queue growth at the bottleneck.
	now = bump(now)
	a.Observe(now, 1, Signal{RTT: 30 * time.Millisecond})
	if a.Decreases() != 1 {
		t.Fatalf("decreases = %d, want 1 after RTT inflation", a.Decreases())
	}
}

func TestHintDecreases(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	a.Register(1, ClassNonRealTime, 1, 50e6, func(float64) {})

	var now time.Duration
	a.Hint(now)
	if a.Decreases() != 1 || a.Hints() != 1 {
		t.Fatalf("decreases=%d hints=%d after Hint, want 1/1", a.Decreases(), a.Hints())
	}
}

func TestUnseededStartsAtDemandSum(t *testing.T) {
	a := New(DefaultPolicy())
	a.Register(1, ClassNonRealTime, 1, 3e6, func(float64) {})
	a.Register(2, ClassNonRealTime, 1, 5e6, func(float64) {})
	if got := a.CapacityBps(); got != 8e6 {
		t.Fatalf("unseeded capacity %v, want demand sum 8e6", got)
	}
}

func TestUnregisterReturnsBudgetToPool(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	grants := map[uint32]float64{}
	a.Register(1, ClassNonRealTime, 1, 50e6, func(bps float64) { grants[1] = bps })
	a.Register(2, ClassNonRealTime, 1, 50e6, func(bps float64) { grants[2] = bps })

	var now time.Duration
	run(a, &now)
	half := grants[2]

	a.Unregister(1)
	run(a, &now)
	if grants[2] < half*1.8 {
		t.Fatalf("survivor grant %v after unregister, want ~2x %v", grants[2], half)
	}
	if a.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", a.Sessions())
	}
}

func TestSqueezeOfAndSetDemand(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(4e6)
	a.Register(1, ClassDistributionalIso, 1, 8e6, func(float64) {})

	var now time.Duration
	run(a, &now)
	sq := a.SqueezeOf(1)
	if sq < 0.4 || sq > 0.7 {
		t.Fatalf("squeeze = %v, want ~0.5 (granted ~3.8e6 of 8e6)", sq)
	}
	// Stepping the demand ladder down to fit relieves the squeeze.
	a.SetDemand(1, 3e6)
	run(a, &now)
	if sq := a.SqueezeOf(1); sq != 0 {
		t.Fatalf("squeeze = %v after demand step-down, want 0", sq)
	}
}

func TestGrantsDeliveredOnlyOnMeaningfulChange(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	calls := 0
	a.Register(1, ClassNonRealTime, 1, 50e6, func(float64) { calls++ })

	var now time.Duration
	for i := 0; i < 20; i++ {
		run(a, &now)
	}
	if calls != 1 {
		t.Fatalf("grant callback fired %d times in steady state, want 1", calls)
	}
}

func TestMinBpsFloorUnderExtremePressure(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(200e3)
	grants := map[uint32]float64{}
	for id := uint32(1); id <= 8; id++ {
		sid := id
		a.Register(sid, ClassNonRealTime, 1, 10e6, func(bps float64) { grants[sid] = bps })
	}
	var now time.Duration
	run(a, &now)
	for id, g := range grants {
		if g < MinBps {
			t.Fatalf("session %d granted %v below MinBps %v", id, g, MinBps)
		}
	}
}

func TestMetricCountersExported(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(10e6)
	a.Register(1, ClassNonRealTime, 1, 1e6, func(float64) {})
	var now time.Duration
	run(a, &now)
	c := a.MetricCounters()
	for _, key := range []string{
		"arbiter.capacity_bps", "arbiter.sessions", "arbiter.grants",
		"arbiter.decreases", "arbiter.increases", "arbiter.reallocs",
		"arbiter.hints", "arbiter.squeeze_ppm",
	} {
		if _, ok := c[key]; !ok {
			t.Fatalf("counter %q missing", key)
		}
	}
	if got := c["arbiter.capacity_bps"](); got != 10e6 {
		t.Fatalf("capacity gauge = %d, want 10e6", got)
	}
	if got := c["arbiter.sessions"](); got != 1 {
		t.Fatalf("sessions gauge = %d, want 1", got)
	}
}

// TestHotPathZeroAlloc is the < 1 alloc/pkt gate at unit level: the per-tick
// arbiter work (Observe + Reallocate over a full mixed-class population)
// must not allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(50e6)
	for id := uint32(1); id <= 16; id++ {
		a.Register(id, Class(id%NumClasses), float64(id%3+1), 4e6, func(float64) {})
	}
	var now time.Duration
	run(a, &now)

	sig := Signal{LossRate: 0.001, RTT: 12 * time.Millisecond, ThroughputBps: 3e6}
	avg := testing.AllocsPerRun(200, func() {
		now = bump(now)
		for id := uint32(1); id <= 16; id++ {
			a.Observe(now, id, sig)
		}
		a.Reallocate(now)
	})
	if avg != 0 {
		t.Fatalf("hot path allocates %.2f per tick, want 0", avg)
	}
}

func TestJainFairnessAcrossEqualPeers(t *testing.T) {
	a := New(DefaultPolicy())
	a.SeedCapacity(12e6)
	grants := map[uint32]float64{}
	const n = 6
	for id := uint32(1); id <= n; id++ {
		sid := id
		a.Register(sid, ClassNonRealTime, 1, 10e6, func(bps float64) { grants[sid] = bps })
	}
	var now time.Duration
	run(a, &now)

	var sum, sumSq float64
	for _, g := range grants {
		sum += g
		sumSq += g * g
	}
	jain := sum * sum / (n * sumSq)
	if jain < 0.99 {
		t.Fatalf("Jain index %v over equal peers, want ~1", jain)
	}
}
