package unites

import "testing"

// The metering hot path — one Distribution.Add per delivered message — must
// not allocate once the distribution is warm, or many-session soaks pay a GC
// tax proportional to traffic. These tests pin that budget at exactly zero.

func TestDistributionAddZeroAllocAfterReserve(t *testing.T) {
	d := NewDistribution().Reserve()
	// Push past the reservoir limit so Add takes the steady-state
	// (algorithm R replacement) path, not the fill path.
	for i := 0; i < defaultReservoir+64; i++ {
		d.Add(float64(i%97) * 1e-3)
	}
	allocs := testing.AllocsPerRun(1000, func() { d.Add(3.25e-3) })
	if allocs != 0 {
		t.Fatalf("Distribution.Add after Reserve: %v allocs/op, want 0", allocs)
	}
}

func TestDistributionAddZeroAllocDuringReservedFill(t *testing.T) {
	// Reserve promises zero allocations from the very first sample — the
	// fill path appends into preallocated capacity and the histogram slot
	// already exists.
	d := NewDistribution().Reserve()
	var i int
	allocs := testing.AllocsPerRun(500, func() {
		d.Add(float64(i) * 1e-4)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Distribution.Add while filling a reserved reservoir: %v allocs/op, want 0", allocs)
	}
}

func TestRecorderSampleSteadyStateZeroAlloc(t *testing.T) {
	// Unreserved recorders (the per-session default) reach zero-alloc
	// steady state once the reservoir has grown to its limit and the
	// histogram exists: the map entry is in place, so Sample is a lookup
	// plus in-place accumulation.
	r := NewRecorder("host-a/conn-00000001")
	for i := 0; i < defaultReservoir+64; i++ {
		r.Sample("transport.rtt", float64(i%89)*1e-3)
	}
	allocs := testing.AllocsPerRun(1000, func() { r.Sample("transport.rtt", 2.5e-3) })
	if allocs != 0 {
		t.Fatalf("Recorder.Sample steady state: %v allocs/op, want 0", allocs)
	}
}

func TestCounterCellZeroAlloc(t *testing.T) {
	r := NewRecorder("host-a/conn-00000001")
	c := r.Cell("pdu.sent")
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Cell.Add: %v allocs/op, want 0", allocs)
	}
	// The by-name entry reaches the same cell without allocating once it
	// exists.
	if allocs := testing.AllocsPerRun(1000, func() { r.Count("pdu.sent", 1) }); allocs != 0 {
		t.Fatalf("Recorder.Count on an existing counter: %v allocs/op, want 0", allocs)
	}
	if got := r.Counter("pdu.sent"); got != 2002 {
		t.Fatalf("counter = %d after 1001 adds by cell and 1001 by name, want 2002", got)
	}
}
